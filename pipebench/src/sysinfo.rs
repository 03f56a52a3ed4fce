//! Process resource readers and the host facts every report records.

use std::path::Path;

/// Clock ticks per second in `/proc/<pid>/stat`. Linux reports CPU times
/// there in `USER_HZ`, which is 100 on every architecture this runs on.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the process, all threads included,
/// from a `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted after its closing `)`:
/// `utime` and `stime` are fields 14 and 15.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11); // fields 3..=13
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MiB from `/proc/<pid>/status` (`VmHWM`,
/// reported in kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_cpu_seconds)
        .expect("/proc/self/stat holds utime and stime")
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_peak_rss_mb)
        .expect("/proc/self/status holds VmHWM")
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory when there is one (a plain source checkout has none).
pub fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The value of an environment knob the engine reads, or `unset`.
pub fn env_knob(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_reader_parses_utime_plus_stime() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime ...
        let stat = "4242 (pipe bench) R 1 4242 4242 0 -1 4194304 900 0 0 0 250 75 0 0 20 0 3";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
        let tricky = "7 (a) b) c) S 1 7 7 0 -1 0 0 0 0 0 1 2 0 0";
        assert_eq!(parse_cpu_seconds(tricky), Some(0.03));
        assert_eq!(parse_cpu_seconds("7 (short) S 1"), None);
    }

    #[test]
    fn rss_reader_parses_vm_hwm() {
        let status =
            "Name:\tpipebench\nVmPeak:\t  300000 kB\nVmHWM:\t   54272 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(53.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_track_work_and_memory() {
        let cpu0 = cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(150) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            cpu_seconds() - cpu0 >= 0.05,
            "a 150 ms spin registers as CPU time"
        );
        let before = peak_rss_mb();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(
            peak_rss_mb() >= before.max(64.0),
            "touching 64 MiB raises the peak"
        );
    }
}
