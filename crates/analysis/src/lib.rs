//! The analysis pipeline: regenerates every table and figure of the paper
//! from simulated measurements.
//!
//! Each `figN` module computes the same quantity the paper plots, from the
//! same kind of raw data (DNS resolutions, NetFlow records, SNMP counters),
//! and returns a [`Table`] whose rows are the figure's series. The `repro`
//! binary prints them all; `EXPERIMENTS.md` records paper-vs-measured.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Figure 1 — measurement timeline |
//! | [`fig2`] | Figure 2 — request-mapping DNS graph with TTLs |
//! | [`fig3`] | Figure 3 — Apple delivery-site locations |
//! | [`table1`] | Table 1 — server naming scheme |
//! | [`fig4`] | Figure 4 — unique cache IPs per continent |
//! | [`fig5`] | Figure 5 — unique cache IPs inside the Eyeball ISP |
//! | [`fig6`] | Figure 6 — offload/overflow taxonomy (worked example) |
//! | [`fig7`] | Figure 7 — update traffic ratio by source AS |
//! | [`fig8`] | Figure 8 — overflow share by handover AS |
//! | [`coverage`] | Data-completeness annotations for fault-injected runs |
//! | [`chaos`] | Chaos-sweep availability/offload deltas (beyond the paper) |
//! | [`poisoning`] | Poisoning-sweep mis-mapping deltas, enforcement on vs off (beyond the paper) |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache_location;
pub mod chaos;
pub mod coverage;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod poisoning;
pub mod table;
pub mod table1;
pub mod via_inference;

pub use table::Table;

/// The path named after `flag` on a command line: `Ok(None)` when the
/// flag is absent, an error message when it has no value — nothing
/// follows it, or the next argument is another option (`--journal
/// --metrics m.jsonl` must not write a journal named `--metrics`, nor
/// `--csv-dir --paper` a directory named `--paper`). The binaries answer
/// the error with usage and exit status 2.
pub fn path_arg_value(args: &[String], flag: &str) -> Result<Option<std::path::PathBuf>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(path) if !path.starts_with("--") => Ok(Some(std::path::PathBuf::from(path))),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// Rejects any option (an argument starting with `--`) not in `known`:
/// a misspelt flag (`--papr`, `--jounral`, `--smok`) must not run with
/// the default settings as if it had not been given. The error names the
/// first unknown option; the binaries answer it with usage and exit
/// status 2.
pub fn reject_unknown_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        Some(flag) => Err(format!("unknown option {flag}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_arg_rejects_a_missing_value_or_a_flag_as_the_value() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        // mcdn campaign --journal / --metrics
        let journal = |s: &str| path_arg_value(&args(s), "--journal");
        assert_eq!(journal("global --journal j.bin"), Ok(Some("j.bin".into())));
        assert_eq!(journal("global --metrics m.jsonl"), Ok(None));
        let missing = Err("--journal needs a value".to_string());
        assert_eq!(journal("global --journal"), missing);
        assert_eq!(journal("global --journal --metrics m.jsonl"), missing);
        // repro --csv-dir
        let csv_dir = |s: &str| path_arg_value(&args(s), "--csv-dir");
        assert_eq!(csv_dir("--paper --csv-dir out"), Ok(Some("out".into())));
        assert_eq!(csv_dir("--paper"), Ok(None));
        let missing = Err("--csv-dir needs a value".to_string());
        assert_eq!(csv_dir("--csv-dir"), missing);
        assert_eq!(csv_dir("--csv-dir --paper"), missing);
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let repro = |s: &str| reject_unknown_flags(&args(s), &["--paper", "--fast", "--csv-dir"]);
        assert_eq!(repro("--paper --csv-dir results"), Ok(()));
        assert_eq!(
            repro("--papr --csv-dir results"),
            Err("unknown option --papr".to_string())
        );
        // Values and positional arguments are not options.
        let mcdn = |s: &str| reject_unknown_flags(&args(s), &["--paper", "--journal", "--metrics"]);
        assert_eq!(mcdn("global --journal j.bin"), Ok(()));
        assert_eq!(
            mcdn("global --jounral j.bin"),
            Err("unknown option --jounral".to_string())
        );
        let bench = |s: &str| reject_unknown_flags(&args(s), &["--smoke"]);
        assert_eq!(bench("--smoke out.json"), Ok(()));
        assert_eq!(bench("--smok"), Err("unknown option --smok".to_string()));
    }
}
