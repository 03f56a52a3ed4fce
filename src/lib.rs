//! `metacdn-suite` — umbrella crate over the Meta-CDN reproduction
//! workspace.
//!
//! Re-exports every workspace crate under a stable prefix so examples and
//! integration tests can address the whole system through one dependency:
//!
//! ```
//! use metacdn_suite::scenario::{ScenarioConfig, World};
//! let world = World::build(&ScenarioConfig::fast());
//! assert_eq!(world.vms.len(), 9);
//! ```
//!
//! See the repository `README.md` for the architecture overview and
//! `DESIGN.md` for the paper-to-module map.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use mcdn_analysis as analysis;
pub use mcdn_atlas as atlas;
pub use mcdn_cdn as cdn;
pub use mcdn_dnssim as dnssim;
pub use mcdn_dnswire as dnswire;
pub use mcdn_exec as exec;
pub use mcdn_faults as faults;
pub use mcdn_geo as geo;
pub use mcdn_isp as isp;
pub use mcdn_journal as journal;
pub use mcdn_netsim as netsim;
pub use mcdn_obs as obs;
pub use mcdn_scenario as scenario;
pub use mcdn_workload as workload;
pub use metacdn as core;

pub mod reports;

/// Builds the scenario world for `cfg`, reporting a configuration error on
/// stderr and exiting nonzero instead of panicking — the polite front door
/// for examples and other end-user binaries.
pub fn build_world_or_exit(cfg: &scenario::ScenarioConfig) -> scenario::World {
    match scenario::World::try_build(cfg) {
        Ok(world) => world,
        Err(e) => {
            eprintln!("error: cannot build the scenario world: {e}");
            std::process::exit(1);
        }
    }
}
