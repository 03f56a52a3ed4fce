//! Table 1: the Apple server naming scheme, validated against the scan.

use crate::table::Table;
use mcdn_atlas::scan_prefix;
use mcdn_cdn::naming::ServerName;
use mcdn_cdn::AppleCdn;
use mcdn_scenario::World;

/// Regenerates Table 1: the scheme fields with their meanings, plus a
/// parsed example from the live scan.
pub fn table1(world: &World) -> Table {
    let mut t = Table::new(
        "Table 1 — Apple server naming scheme (ab-c-d-e.aaplimg.com)",
        &["identifier", "meaning", "example value"],
    );
    // Pull a real example from the scan, preferring the vip function the
    // paper's example shows.
    let example = scan_prefix(
        AppleCdn::delivery_prefix(),
        1,
        |ip| world.apple.serves_ios_images(ip),
        |ip| world.apple.ptr_lookup(ip).map(|n| n.fqdn()),
    )
    .into_iter()
    .filter_map(|h| h.ptr)
    .filter_map(|p| ServerName::parse(&p))
    .find(|n| n.function == mcdn_cdn::naming::Function::Vip)
    .expect("scan finds a vip");

    t.push(vec![
        "a".into(),
        "UN/LOCODE location (e.g. deber for Berlin)".into(),
        example.locode.to_string(),
    ]);
    t.push(vec![
        "b".into(),
        "Location site id".into(),
        example.site_id.to_string(),
    ]);
    t.push(vec![
        "c".into(),
        "Function: vip, edge, gslb, dns, ntp, tool".into(),
        example.function.token().into(),
    ]);
    t.push(vec![
        "d".into(),
        "Secondary function identifier: bx, lx, sx".into(),
        example.subfunction.token().into(),
    ]);
    t.push(vec![
        "e".into(),
        "Id for same-function server".into(),
        format!("{:03}", example.index),
    ]);
    t.push(vec!["(example)".into(), "full name".into(), example.fqdn()]);
    t
}

/// Validation statistics: how many scanned PTR names parse under the
/// scheme (the paper reconstructed the scheme because *all* of them do).
pub fn scheme_coverage(world: &World) -> (usize, usize) {
    let mut total = 0;
    let mut parsed = 0;
    for ip in world.apple.all_ips() {
        if let Some(name) = world.apple.ptr_lookup(*ip) {
            total += 1;
            if ServerName::parse(&name.fqdn()).is_some() {
                parsed += 1;
            }
        }
    }
    (parsed, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_scenario::ScenarioConfig;

    #[test]
    fn scheme_rows_and_full_coverage() {
        let world = World::build(&ScenarioConfig::fast());
        let t = table1(&world);
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.cell(0, 0), Some("a"));
        let (parsed, total) = scheme_coverage(&world);
        assert!(total > 1000);
        assert_eq!(
            parsed, total,
            "every infrastructure name follows the scheme"
        );
    }
}
