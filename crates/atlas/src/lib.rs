//! The measurement platform: RIPE-Atlas-style probes, vantage VMs, result
//! aggregation, and address-space scanning.
//!
//! The paper's measurement apparatus (§3.2, Figure 1) has three arms, all
//! reproduced here:
//!
//! * **800 global RIPE Atlas probes** issuing DNS queries for
//!   `appldnld.apple.com` every 5 minutes (plus hourly traceroutes to every
//!   resolved IP) for a week either side of the release — [`probe`] models a
//!   probe as a located client with its own caching resolver.
//! * **9 AWS VMs** doing *full* recursive resolution and availability
//!   checks — [`vm`] records complete CNAME chains (the Figure 2 input).
//! * **400 additional probes inside the European Eyeball ISP** measuring
//!   every 12 hours from Aug 20 to Dec 31 — built with the same
//!   [`probe::ProbeSpec`] machinery, placed by the scenario.
//!
//! [`agg::UniqueIpAggregator`] implements the unique-IPs-per-bin-per-CDN
//! counting behind Figures 4 and 5, and [`scan`] the 17.0.0.0/8 sweep behind
//! Figure 3 and Table 1.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod agg;
pub mod availability;
pub mod export;
pub mod probe;
pub mod scan;
pub mod vm;

pub use agg::UniqueIpAggregator;
pub use availability::Availability;
pub use export::{to_jsonl, AtlasDnsResult, AtlasTracerouteResult};
pub use probe::{build_fleet, spread_specs, Probe, ProbeSpec};
pub use scan::{scan_prefix, ScanHit};
pub use vm::VantageVm;
