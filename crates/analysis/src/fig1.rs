//! Figure 1: the active-measurement timeline.

use crate::table::Table;
use mcdn_scenario::timeline;

/// Regenerates the Figure 1 timeline as a table of campaign bands and
/// point events.
pub fn fig1() -> Table {
    let mut t = Table::new(
        "Figure 1 — Active measurement timeline",
        &["kind", "name", "start", "end"],
    );
    for e in timeline() {
        t.push(vec![
            if e.point { "event" } else { "campaign" }.to_string(),
            e.name.to_string(),
            e.start.to_string(),
            if e.point {
                String::from("—")
            } else {
                e.end.to_string()
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_three_campaigns_and_the_release() {
        let t = fig1();
        assert_eq!(t.rows.iter().filter(|r| r[0] == "campaign").count(), 3);
        let release = t.find_row(1, "iOS 11.0 release").expect("release row");
        assert!(release[2].contains("Sep 19 2017 17:00"));
    }
}
