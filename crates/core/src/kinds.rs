//! The CDNs participating in the Meta-CDN.

use core::fmt;
use mcdn_geo::Region;

/// A content delivery network involved in serving Apple updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CdnKind {
    /// Apple's own CDN (`aaplimg.com`, 17.0.0.0/8).
    Apple,
    /// Akamai (`akamai.net` maps via `edgesuite.net`).
    Akamai,
    /// Limelight (`llnwi.net` / `llnwd.net`).
    Limelight,
    /// Level3 — removed from the mapping in late June 2017 (§3.2), kept in
    /// the model so the removal is testable configuration, not missing code.
    Level3,
}

impl CdnKind {
    /// All kinds, Apple first.
    pub const ALL: [CdnKind; 4] = [
        CdnKind::Apple,
        CdnKind::Akamai,
        CdnKind::Limelight,
        CdnKind::Level3,
    ];

    /// The third-party kinds only.
    pub const THIRD_PARTY: [CdnKind; 3] = [CdnKind::Akamai, CdnKind::Limelight, CdnKind::Level3];

    /// Display name as used in the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            CdnKind::Apple => "Apple",
            CdnKind::Akamai => "Akamai",
            CdnKind::Limelight => "Limelight",
            CdnKind::Level3 => "Level3",
        }
    }

    /// Whether the paper observed this third-party CDN as selectable in
    /// `region` (§3.2: US/EU had Akamai, Limelight, Level3 — before Level3's
    /// removal — while APAC had only Akamai and Limelight).
    pub fn available_in(&self, region: Region) -> bool {
        match self {
            CdnKind::Apple | CdnKind::Akamai | CdnKind::Limelight => true,
            CdnKind::Level3 => matches!(region, Region::Us | Region::Eu),
        }
    }
}

impl fmt::Display for CdnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_matches_paper() {
        assert!(CdnKind::Level3.available_in(Region::Us));
        assert!(CdnKind::Level3.available_in(Region::Eu));
        assert!(!CdnKind::Level3.available_in(Region::Apac));
        for r in Region::ALL {
            assert!(CdnKind::Akamai.available_in(r));
            assert!(CdnKind::Limelight.available_in(r));
            assert!(CdnKind::Apple.available_in(r));
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in CdnKind::ALL {
            assert!(seen.insert(k.label()));
        }
    }
}
