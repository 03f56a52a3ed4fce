//! Apple's CDN server naming scheme (Table 1 of the paper).
//!
//! ```text
//! Naming Scheme:  ab-c-d-e.aaplimg.com
//! Example:        usnyc3-vip-bx-008.aaplimg.com
//!
//! a  UN/LOCODE location          (e.g. deber for Berlin)
//! b  Location site id            (e.g. 1)
//! c  Function: vip, edge, gslb, dns, ntp, tool
//! d  Secondary function id: bx, lx, sx
//! e  Id for same-function server (e.g. 004)
//! ```
//!
//! The scheme is implemented bidirectionally: the scenario *formats* names
//! for every server it instantiates, and the analysis *parses* names
//! harvested from simulated PTR scans to rediscover the site map (Figure 3)
//! — the same inference the paper performs with the Aquatone tool.

use mcdn_geo::Locode;
use std::fmt;
use std::str::FromStr;

/// The DNS suffix of Apple CDN infrastructure names.
pub const APPLE_IMG_SUFFIX: &str = "aaplimg.com";

/// Primary server function (field `c`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Function {
    /// Virtual-IP load balancer fronting a group of edge caches.
    Vip,
    /// Edge cache.
    Edge,
    /// Global server load balancer.
    Gslb,
    /// DNS server.
    Dns,
    /// NTP server.
    Ntp,
    /// Operational tooling.
    Tool,
}

impl Function {
    /// All functions, for enumeration in analyses.
    pub const ALL: [Function; 6] = [
        Function::Vip,
        Function::Edge,
        Function::Gslb,
        Function::Dns,
        Function::Ntp,
        Function::Tool,
    ];

    /// The lowercase token used in names.
    pub fn token(&self) -> &'static str {
        match self {
            Function::Vip => "vip",
            Function::Edge => "edge",
            Function::Gslb => "gslb",
            Function::Dns => "dns",
            Function::Ntp => "ntp",
            Function::Tool => "tool",
        }
    }

    fn parse(s: &str) -> Option<Function> {
        Self::ALL.into_iter().find(|f| f.token() == s)
    }
}

/// Secondary function identifier (field `d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubFunction {
    /// `bx` — the paper infers this to be the client-facing tier.
    Bx,
    /// `lx` — the parent tier consulted on cache miss.
    Lx,
    /// `sx` — a further secondary id observed in the wild.
    Sx,
}

impl SubFunction {
    /// The lowercase token used in names.
    pub fn token(&self) -> &'static str {
        match self {
            SubFunction::Bx => "bx",
            SubFunction::Lx => "lx",
            SubFunction::Sx => "sx",
        }
    }

    fn parse(s: &str) -> Option<SubFunction> {
        match s {
            "bx" => Some(SubFunction::Bx),
            "lx" => Some(SubFunction::Lx),
            "sx" => Some(SubFunction::Sx),
            _ => None,
        }
    }
}

/// A fully parsed Apple CDN server name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerName {
    /// Location code exactly as Apple spells it (may be the `uklon` alias).
    pub locode: Locode,
    /// Site id at the location (field `b`).
    pub site_id: u8,
    /// Primary function (field `c`).
    pub function: Function,
    /// Secondary function id (field `d`).
    pub subfunction: SubFunction,
    /// Same-function server index (field `e`).
    pub index: u16,
}

impl ServerName {
    /// Builds a name.
    pub fn new(
        locode: Locode,
        site_id: u8,
        function: Function,
        subfunction: SubFunction,
        index: u16,
    ) -> ServerName {
        ServerName {
            locode,
            site_id,
            function,
            subfunction,
            index,
        }
    }

    /// The fully qualified domain name, e.g.
    /// `usnyc3-vip-bx-008.aaplimg.com`.
    pub fn fqdn(&self) -> String {
        format!(
            "{}{}-{}-{}-{:03}.{}",
            self.locode,
            self.site_id,
            self.function.token(),
            self.subfunction.token(),
            self.index,
            APPLE_IMG_SUFFIX
        )
    }

    /// Parses an Apple CDN server FQDN (the suffix may be `aaplimg.com` or
    /// the `ts.apple.com` form seen in `Via` headers).
    pub fn parse(s: &str) -> Option<ServerName> {
        let host = s
            .strip_suffix(&format!(".{APPLE_IMG_SUFFIX}"))
            .or_else(|| s.strip_suffix(".ts.apple.com"))
            .unwrap_or(s);
        let mut parts = host.split('-');
        let loc_site = parts.next()?;
        let function = Function::parse(parts.next()?)?;
        let subfunction = SubFunction::parse(parts.next()?)?;
        let index: u16 = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        // `loc_site` is five letters of LOCODE followed by decimal site id.
        if loc_site.len() < 6 {
            return None;
        }
        let (loc, site) = loc_site.split_at(5);
        let locode = Locode::parse(loc)?;
        let site_id: u8 = site.parse().ok()?;
        Some(ServerName {
            locode,
            site_id,
            function,
            subfunction,
            index,
        })
    }
}

impl fmt::Display for ServerName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.fqdn())
    }
}

impl FromStr for ServerName {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ServerName::parse(s).ok_or(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_parses() {
        let name = ServerName::parse("usnyc3-vip-bx-008.aaplimg.com").unwrap();
        assert_eq!(name.locode.as_str(), "usnyc");
        assert_eq!(name.site_id, 3);
        assert_eq!(name.function, Function::Vip);
        assert_eq!(name.subfunction, SubFunction::Bx);
        assert_eq!(name.index, 8);
        assert_eq!(name.fqdn(), "usnyc3-vip-bx-008.aaplimg.com");
    }

    #[test]
    fn via_header_form_parses() {
        // The paper's Via example uses the ts.apple.com suffix.
        let name = ServerName::parse("defra1-edge-lx-011.ts.apple.com").unwrap();
        assert_eq!(name.locode.as_str(), "defra");
        assert_eq!(name.function, Function::Edge);
        assert_eq!(name.subfunction, SubFunction::Lx);
        assert_eq!(name.index, 11);
    }

    #[test]
    fn london_quirk_roundtrips() {
        // Apple spells London uklon, not gblon; the scheme preserves it.
        let name = ServerName::parse("uklon1-edge-bx-001.aaplimg.com").unwrap();
        assert_eq!(name.locode.as_str(), "uklon");
        assert_eq!(
            mcdn_geo::Registry::by_locode(name.locode).map(|c| c.name),
            Some("London")
        );
    }

    #[test]
    fn all_function_tokens_roundtrip() {
        for f in Function::ALL {
            for sub in [SubFunction::Bx, SubFunction::Lx, SubFunction::Sx] {
                let n = ServerName::new(Locode::parse("deber").unwrap(), 2, f, sub, 104);
                assert_eq!(ServerName::parse(&n.fqdn()), Some(n));
            }
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "usnyc-vip-bx-008.aaplimg.com",    // missing site id
            "usnyc3-vipp-bx-008.aaplimg.com",  // unknown function
            "usnyc3-vip-zz-008.aaplimg.com",   // unknown subfunction
            "usnyc3-vip-bx.aaplimg.com",       // missing index
            "usnyc3-vip-bx-00x.aaplimg.com",   // non-numeric index
            "usnyc3-vip-bx-008-9.aaplimg.com", // trailing junk
            "us3-vip-bx-008.aaplimg.com",      // short locode
            "",
        ] {
            assert_eq!(ServerName::parse(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn two_digit_site_id() {
        let n = ServerName::parse("ussjc12-edge-bx-040.aaplimg.com").unwrap();
        assert_eq!(n.site_id, 12);
        assert_eq!(n.fqdn(), "ussjc12-edge-bx-040.aaplimg.com");
    }
}
