//! Address-space scanning: the Figure 3 / Table 1 discovery method.
//!
//! The paper scanned Apple's 17.0.0.0/8 for IPs serving iOS images and
//! enumerated their reverse-DNS names (with the Aquatone tool) to
//! reconstruct the server naming scheme and site map. [`scan_prefix`]
//! reproduces the sweep against the simulated CDN's availability and PTR
//! surfaces.

use mcdn_netsim::Ipv4Net;
use std::net::Ipv4Addr;

/// One responsive address found by a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanHit {
    /// The responsive address.
    pub ip: Ipv4Addr,
    /// Its reverse-DNS name, if any.
    pub ptr: Option<String>,
}

/// Sweeps `prefix` with the given `stride` (1 = every address), calling
/// `available` to test whether an address serves iOS images and `ptr` for
/// its reverse name. Returns hits in address order.
///
/// A stride > 1 models the time-bounded sampling a real /8 scan does; the
/// simulated Apple CDN allocates its delivery servers contiguously inside
/// 17.253.0.0/16, so scanning that prefix at stride 1 is exhaustive and
/// cheap, while a strided 17.0.0.0/8 sweep finds the same servers more
/// slowly — tests cover both.
pub fn scan_prefix(
    prefix: Ipv4Net,
    stride: u64,
    mut available: impl FnMut(Ipv4Addr) -> bool,
    mut ptr: impl FnMut(Ipv4Addr) -> Option<String>,
) -> Vec<ScanHit> {
    assert!(stride >= 1, "stride must be at least 1");
    let mut hits = Vec::new();
    let mut i = 0u64;
    while let Some(ip) = prefix.nth(i) {
        if available(ip) {
            hits.push(ScanHit { ip, ptr: ptr(ip) });
        }
        i += stride;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_available_addresses_in_order() {
        let prefix = Ipv4Net::parse("192.0.2.0/28").unwrap();
        let wanted: Vec<Ipv4Addr> = ["192.0.2.3", "192.0.2.7"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let hits = scan_prefix(
            prefix,
            1,
            |ip| wanted.contains(&ip),
            |ip| Some(format!("host-{}.example", ip)),
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].ip, wanted[0]);
        assert_eq!(hits[1].ip, wanted[1]);
        assert_eq!(hits[0].ptr.as_deref(), Some("host-192.0.2.3.example"));
    }

    #[test]
    fn stride_skips_addresses() {
        let prefix = Ipv4Net::parse("192.0.2.0/28").unwrap();
        let mut probed = Vec::new();
        let _ = scan_prefix(
            prefix,
            4,
            |ip| {
                probed.push(ip);
                false
            },
            |_| None,
        );
        assert_eq!(probed.len(), 4, "16 addresses / stride 4");
    }

    #[test]
    fn missing_ptr_is_recorded_as_none() {
        let prefix = Ipv4Net::parse("192.0.2.0/30").unwrap();
        let hits = scan_prefix(prefix, 1, |_| true, |_| None);
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|h| h.ptr.is_none()));
    }
}
