//! Sample statistics, CPU clocks and process memory readings.

use std::time::Duration;

/// The `p`-quantile (`0 < p <= 1`) of `samples` by nearest rank, or
/// `None` when there are no samples. Sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The median of `samples` (the mean of the middle two for an even
/// count), or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// size. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set size in MiB (`VmHWM`), or `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU time of the machine from the
/// aggregate line of `/proc/stat`, in clock ticks, or `None` off Linux.
/// Steal is time the hypervisor gave this machine's virtual CPUs to
/// someone else; a run with a high steal share ran on a busy host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()))
}

/// The steal share of CPU time between two [`cpu_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the whole process has consumed so far: every thread, exited
/// ones included. The kernel charges a virtual CPU's stolen time to no
/// thread, so unlike wall time this does not grow when the host gives
/// the machine's CPUs to someone else.
pub fn process_cpu() -> Duration {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds for)
    // and the clock id is a valid constant; the call writes only `t`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

/// CPU time thread `tid` of this process has consumed (the first field of
/// its `schedstat`), or `None` once it has exited.
pub fn thread_cpu(tid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let ns = stat.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

/// Ids of this process's live threads named `name` (compared as the
/// kernel stores it: cut to 15 bytes).
pub fn threads_named(name: &str) -> Vec<u32> {
    let name = &name[..name.len().min(15)];
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|e| {
            let e = e.ok()?;
            let comm = std::fs::read_to_string(e.path().join("comm")).ok()?;
            (comm.trim_end() == name).then(|| e.file_name().to_str()?.parse().ok())?
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 0.5), Some(50.0));
        assert_eq!(percentile(&mut s, 0.9), Some(90.0));
        assert_eq!(percentile(&mut s, 0.99), Some(99.0));
        assert_eq!(percentile(&mut [3.0], 0.99), Some(3.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let t0 = process_cpu();
        let me = threads_named(&std::fs::read_to_string("/proc/thread-self/comm").unwrap());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu() > t0);
        assert!(!me.is_empty());
        assert!(me
            .iter()
            .any(|&tid| thread_cpu(tid).is_some_and(|d| d > Duration::ZERO)));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
