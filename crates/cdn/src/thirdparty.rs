//! Third-party CDN models: load-dependent cache pools with off-net caches.
//!
//! The paper's measurements show two behaviours of the third-party CDNs that
//! the reproduction must generate mechanically:
//!
//! 1. **Pool widening under load** — the number of unique cache IPs a CDN
//!    exposes in DNS answers grows with its offered load (Europe jumped from
//!    an average of 191 unique IPs to 977 within an hour of the release,
//!    Figure 4), and shrinks back afterwards.
//! 2. **Off-net caches** — both Akamai and Limelight answer with addresses
//!    located in *other* ASes ("Akamai other AS" / "Limelight other AS" in
//!    Figures 4/5). When Limelight activates off-net caches behind a transit
//!    AS the ISP barely peers with, the result is the overflow of Figure 8.
//!
//! A [`ThirdPartyCdn`] owns per-region pools of three kinds: `base`
//! (always advertised), `surge` (progressively exposed as load grows), and
//! `offnet` pools (engaged only above a load threshold). Exposure is a pure
//! function of `(region, load)`, so measurement runs are reproducible.

use crate::site::fnv64;
use mcdn_geo::{Region, SimTime};
use mcdn_netsim::{AsId, Ipv4Net};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A pool of caches homed in a foreign AS.
#[derive(Debug, Clone)]
pub struct OffNetPool {
    /// The AS hosting these caches.
    pub host_as: AsId,
    /// Cache addresses (announced by `host_as` in the topology).
    pub ips: Vec<Ipv4Addr>,
    /// Load (0..1) above which this pool is engaged.
    pub engage_at: f64,
}

/// How often the answer rotation advances (seconds).
const ROTATION_SECS: u64 = 60;

/// A third-party CDN participating in the Meta-CDN.
#[derive(Debug, Clone)]
pub struct ThirdPartyCdn {
    /// Operator name ("Akamai", "Limelight", "Level3").
    pub name: String,
    /// The CDN's own AS.
    pub as_id: AsId,
    base: HashMap<Region, Vec<Ipv4Addr>>,
    surge: HashMap<Region, Vec<Ipv4Addr>>,
    offnet: HashMap<Region, Vec<OffNetPool>>,
    /// Exponent shaping how fast the surge pool is exposed with load.
    surge_exponent: f64,
}

impl ThirdPartyCdn {
    /// A CDN with empty pools.
    pub fn new(name: &str, as_id: AsId) -> ThirdPartyCdn {
        ThirdPartyCdn {
            name: name.to_string(),
            as_id,
            base: HashMap::new(),
            surge: HashMap::new(),
            offnet: HashMap::new(),
            surge_exponent: 1.0,
        }
    }

    /// Generates `count` addresses from `prefix` starting at `offset`
    /// (helper for building pools from a CDN's address space).
    pub fn ips_from_prefix(prefix: Ipv4Net, offset: u64, count: usize) -> Vec<Ipv4Addr> {
        (0..count as u64)
            .map(|i| prefix.nth(offset + i).expect("pool fits in prefix"))
            .collect()
    }

    /// Sets the always-advertised pool for `region`.
    pub fn with_base(mut self, region: Region, ips: Vec<Ipv4Addr>) -> Self {
        self.base.insert(region, ips);
        self
    }

    /// Sets the load-proportional surge pool for `region`.
    pub fn with_surge(mut self, region: Region, ips: Vec<Ipv4Addr>) -> Self {
        self.surge.insert(region, ips);
        self
    }

    /// Adds an off-net pool for `region`.
    pub fn with_offnet(mut self, region: Region, pool: OffNetPool) -> Self {
        self.offnet.entry(region).or_default().push(pool);
        self
    }

    /// Sets the surge-exposure exponent (`<1` exposes aggressively early,
    /// `>1` lazily).
    pub fn with_surge_exponent(mut self, e: f64) -> Self {
        assert!(e > 0.0);
        self.surge_exponent = e;
        self
    }

    /// How many surge addresses are exposed at a (clamped) `load`, out of
    /// a surge pool of `pool` addresses.
    fn surge_exposed(&self, pool: usize, load: f64) -> usize {
        ((pool as f64 * load.powf(self.surge_exponent)).round() as usize).min(pool)
    }

    /// The set of addresses the CDN exposes in `region` at `load ∈ [0,1]`.
    /// Deterministic and monotone in `load`.
    pub fn exposed(&self, region: Region, load: f64) -> Vec<Ipv4Addr> {
        let load = load.clamp(0.0, 1.0);
        let mut out = self.base.get(&region).cloned().unwrap_or_default();
        if let Some(surge) = self.surge.get(&region) {
            out.extend_from_slice(&surge[..self.surge_exposed(surge.len(), load)]);
        }
        for pool in self.offnet.get(&region).into_iter().flatten() {
            if load >= pool.engage_at {
                out.extend_from_slice(&pool.ips);
            }
        }
        out
    }

    /// Off-net pools configured for `region` (for topology wiring).
    pub fn offnet_pools(&self, region: Region) -> &[OffNetPool] {
        self.offnet.get(&region).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All off-net pools across regions.
    pub fn all_offnet_pools(&self) -> impl Iterator<Item = &OffNetPool> {
        self.offnet.values().flatten()
    }

    /// Every address the CDN could ever expose in `region`.
    pub fn full_pool(&self, region: Region) -> Vec<Ipv4Addr> {
        self.exposed(region, 1.0)
    }

    /// Total number of addresses configured for `region` across all pool
    /// kinds. The world builder rejects schedules that send weight to a
    /// CDN whose regional pool is empty (such answers would NXDOMAIN).
    pub fn pool_size(&self, region: Region) -> usize {
        self.base.get(&region).map_or(0, Vec::len)
            + self.surge.get(&region).map_or(0, Vec::len)
            + self
                .offnet
                .get(&region)
                .into_iter()
                .flatten()
                .map(|p| p.ips.len())
                .sum::<usize>()
    }

    /// The DNS answer for one client, pushed onto `out`: `k` addresses
    /// drawn from the exposed set, rotated per client and per minute — the
    /// pattern that makes a probe fleet's unique-IP union grow with the
    /// exposed set size. Picks by index into the exposed set's parts (base,
    /// exposed surge, engaged off-net pools, in [`exposed`](Self::exposed)
    /// order) without building it, so answering allocates nothing beyond
    /// `out`'s own growth.
    pub fn answer(
        &self,
        region: Region,
        load: f64,
        client_ip: Ipv4Addr,
        now: SimTime,
        k: usize,
        out: &mut Vec<Ipv4Addr>,
    ) {
        let load = load.clamp(0.0, 1.0);
        let base = self.base.get(&region).map_or(&[][..], Vec::as_slice);
        let surge = self
            .surge
            .get(&region)
            .map_or(&[][..], |s| &s[..self.surge_exposed(s.len(), load)]);
        let offnet = self.offnet.get(&region).map_or(&[][..], Vec::as_slice);
        let engaged = || {
            offnet
                .iter()
                .filter(|p| load >= p.engage_at)
                .map(|p| p.ips.as_slice())
        };
        let len = base.len() + surge.len() + engaged().map(<[_]>::len).sum::<usize>();
        if len == 0 {
            return;
        }
        let salt =
            fnv64(&client_ip.octets()) ^ fnv64(&(now.as_secs() / ROTATION_SECS).to_be_bytes());
        let k = k.min(len);
        out.extend((0..k).map(|j| {
            let mut i = (salt as usize).wrapping_add(j * 7919) % len;
            for part in [base, surge].into_iter().chain(engaged()) {
                if i < part.len() {
                    return part[i];
                }
                i -= part.len();
            }
            unreachable!("index {i} past the exposed set of {len}")
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdn() -> ThirdPartyCdn {
        let p = Ipv4Net::parse("203.0.113.0/24").unwrap();
        let off = Ipv4Net::parse("198.18.0.0/24").unwrap();
        ThirdPartyCdn::new("Limelight", AsId(22822))
            .with_base(Region::Eu, ThirdPartyCdn::ips_from_prefix(p, 0, 10))
            .with_surge(Region::Eu, ThirdPartyCdn::ips_from_prefix(p, 10, 100))
            .with_offnet(
                Region::Eu,
                OffNetPool {
                    host_as: AsId(64500),
                    ips: ThirdPartyCdn::ips_from_prefix(off, 0, 40),
                    engage_at: 0.7,
                },
            )
    }

    #[test]
    fn exposure_grows_with_load() {
        let c = cdn();
        let idle = c.exposed(Region::Eu, 0.0);
        let half = c.exposed(Region::Eu, 0.5);
        let full = c.exposed(Region::Eu, 1.0);
        assert_eq!(idle.len(), 10);
        assert_eq!(half.len(), 60);
        assert_eq!(full.len(), 150);
    }

    #[test]
    fn offnet_engages_at_threshold_only() {
        let c = cdn();
        let below = c.exposed(Region::Eu, 0.69);
        let above = c.exposed(Region::Eu, 0.71);
        let offnet_ip: Ipv4Addr = "198.18.0.5".parse().unwrap();
        assert!(!below.contains(&offnet_ip));
        assert!(above.contains(&offnet_ip));
    }

    #[test]
    fn exposure_is_monotone_and_deterministic() {
        let c = cdn();
        let mut prev = 0;
        for step in 0..=10 {
            let load = step as f64 / 10.0;
            let n = c.exposed(Region::Eu, load).len();
            assert!(n >= prev, "exposure must not shrink with load");
            prev = n;
            assert_eq!(c.exposed(Region::Eu, load), c.exposed(Region::Eu, load));
        }
    }

    #[test]
    fn unknown_region_is_empty() {
        let c = cdn();
        assert!(c.exposed(Region::Apac, 1.0).is_empty());
        let mut ans = Vec::new();
        c.answer(
            Region::Apac,
            1.0,
            "10.0.0.1".parse().unwrap(),
            SimTime(0),
            2,
            &mut ans,
        );
        assert!(ans.is_empty());
    }

    #[test]
    fn answers_drawn_from_exposed_set() {
        let c = cdn();
        let exposed = c.exposed(Region::Eu, 0.5);
        let mut ans = Vec::new();
        c.answer(
            Region::Eu,
            0.5,
            "10.1.2.3".parse().unwrap(),
            SimTime(1000),
            3,
            &mut ans,
        );
        assert_eq!(ans.len(), 3);
        for ip in ans {
            assert!(exposed.contains(&ip));
        }
    }

    #[test]
    fn fleet_union_tracks_pool_size() {
        // Many clients re-resolving over an hour should collectively see
        // most of the exposed pool — the Figure 4 counting mechanism.
        let c = cdn();
        let mut union = std::collections::HashSet::new();
        for client in 0u8..50 {
            for minute in 0..12 {
                let ip = Ipv4Addr::new(10, 0, 1, client);
                let t = SimTime(minute * 300);
                let mut ans = Vec::new();
                c.answer(Region::Eu, 1.0, ip, t, 2, &mut ans);
                union.extend(ans);
            }
        }
        assert!(
            union.len() > 100,
            "union {} should approach pool size 150",
            union.len()
        );
    }

    #[test]
    fn pool_size_counts_every_kind() {
        let c = cdn();
        assert_eq!(c.pool_size(Region::Eu), 10 + 100 + 40);
        assert_eq!(c.pool_size(Region::Apac), 0);
    }

    /// The reference pick: build the whole exposed set, then index into
    /// it — what the index-based [`ThirdPartyCdn::answer`] must match.
    fn answer_via_exposed(
        c: &ThirdPartyCdn,
        region: Region,
        load: f64,
        client_ip: Ipv4Addr,
        now: SimTime,
        k: usize,
    ) -> Vec<Ipv4Addr> {
        let pool = c.exposed(region, load);
        if pool.is_empty() {
            return Vec::new();
        }
        let salt =
            fnv64(&client_ip.octets()) ^ fnv64(&(now.as_secs() / ROTATION_SECS).to_be_bytes());
        let k = k.min(pool.len());
        (0..k)
            .map(|j| pool[((salt as usize).wrapping_add(j * 7919)) % pool.len()])
            .collect()
    }

    /// Base and surge in EU, two off-net pools engaging at different
    /// loads; off-net only in US (no base, no surge); nothing in APAC.
    fn cdn_with_two_offnets(surge_exponent: f64) -> ThirdPartyCdn {
        let off = Ipv4Net::parse("198.19.0.0/24").unwrap();
        cdn()
            .with_surge_exponent(surge_exponent)
            .with_offnet(
                Region::Eu,
                OffNetPool {
                    host_as: AsId(64501),
                    ips: ThirdPartyCdn::ips_from_prefix(off, 0, 7),
                    engage_at: 0.3,
                },
            )
            .with_offnet(
                Region::Us,
                OffNetPool {
                    host_as: AsId(64502),
                    ips: ThirdPartyCdn::ips_from_prefix(off, 100, 5),
                    engage_at: 0.5,
                },
            )
    }

    proptest::proptest! {
        /// The index-based pick equals "build `exposed`, then pick" below,
        /// at and above every off-net threshold, past both ends of the load
        /// range, for empty pools, and for `k` beyond the exposed set.
        #[test]
        fn index_pick_matches_exposed_then_pick(
            ip in proptest::arbitrary::any::<u32>(),
            secs in 0u64..10_000_000,
            k in 0usize..200,
            load in -1.0f64..2.0,
            exponent in 0.25f64..4.0,
        ) {
            let c = cdn_with_two_offnets(exponent);
            let client = Ipv4Addr::from(ip);
            let now = SimTime(secs);
            let edges = [-0.5, 0.0, 0.3 - 1e-9, 0.3, 0.5 - 1e-9, 0.5, 0.7 - 1e-9, 0.7, 1.0, 1.5];
            for load in edges.into_iter().chain([load]) {
                for region in Region::ALL {
                    let mut got = vec![Ipv4Addr::UNSPECIFIED];
                    c.answer(region, load, client, now, k, &mut got);
                    let want = answer_via_exposed(&c, region, load, client, now, k);
                    proptest::prop_assert!(got[0] == Ipv4Addr::UNSPECIFIED, "answer appends to out");
                    proptest::prop_assert!(
                        got[1..] == want[..],
                        "{:?} at load {}: {:?} vs {:?}",
                        region,
                        load,
                        &got[1..],
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn load_is_clamped() {
        let c = cdn();
        assert_eq!(
            c.exposed(Region::Eu, 7.0).len(),
            c.exposed(Region::Eu, 1.0).len()
        );
        assert_eq!(c.exposed(Region::Eu, -1.0).len(), 10);
    }
}
