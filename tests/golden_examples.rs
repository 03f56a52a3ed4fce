//! Golden-snapshot tests for the repository examples.
//!
//! `examples/quickstart.rs` and `examples/ios_update_rollout.rs` print the
//! strings rendered by [`metacdn_suite::reports`]; these tests pin those
//! strings byte-for-byte against tracked fixtures, so any drift in the
//! simulation, the selection model, or the metrics layer shows up as a
//! readable diff instead of a silent output change.
//!
//! To refresh the fixtures after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test --test golden_examples
//! git diff tests/goldens/
//! ```

use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {name} ({e}); run `UPDATE_GOLDENS=1 cargo test --test \
             golden_examples` to create it"
        )
    });
    if expected != actual {
        // A full diff of two multi-kilobyte reports is unreadable in a
        // panic message; show the first divergent line instead.
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(
                e,
                a,
                "golden {name} diverges at line {} (refresh with UPDATE_GOLDENS=1 if intended)",
                i + 1
            );
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "golden {name} line count changed (refresh with UPDATE_GOLDENS=1 if intended)"
        );
        unreachable!("golden {name} differs but no divergent line found");
    }
}

#[test]
fn quickstart_example_output_is_pinned() {
    assert_golden(
        "quickstart.txt",
        &metacdn_suite::reports::quickstart_report(),
    );
}

#[test]
fn ios_update_rollout_example_output_is_pinned() {
    assert_golden(
        "ios_update_rollout.txt",
        &metacdn_suite::reports::ios_update_rollout_report(),
    );
}
