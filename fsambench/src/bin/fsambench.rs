//! The end-to-end run: front doors only, every output checked.
//!
//! ```text
//! fsambench --workload big4|small|serve --seed N --seconds S --trace 0
//! ```
//!
//! The JSON result on the last line of standard output carries the gated
//! metrics, which are CPU times: on a shared virtual machine the host's
//! CPU steal moves wall times by up to 3× between runs, while CPU time
//! stays within a few percent (README.md, "Why CPU time"). Standard error
//! carries the wall-time figures — latency, round trip, throughput — the
//! served stream's alias-cache hit ratio, the host's steal share and a
//! metric table. Exits 1 when any operation failed its check.

use std::time::{Duration, Instant};

use fsambench::cli::Args;
use fsambench::expected::{pts_digest, Expected};
use fsambench::frontdoor;
use fsambench::measure::{
    cpu_ticks, median, peak_rss_mb, percentile, process_cpu, reset_peak_rss, steal_share,
};
use fsambench::report::Outcome;
use fsambench::serve::{self, Oracle, Served, Stream, RELOAD_EVERY};
use fsambench::workload::{self, Workload};

/// Set-ups per run of `serve` (each analyses x264 and starts a server).
const SERVE_SETUPS: usize = 7;

fn main() {
    let args = Args::from_env();
    if args.trace {
        fail("this binary is the untraced run; fsambench-traced serves --trace 1");
    }
    let outcome = match args.workload {
        Workload::Big4 | Workload::Small => analyse_and_lint(&args),
        Workload::Serve => serve(&args),
    };
    outcome.unwrap_or_else(|e| fail(&e)).finish()
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// Counts one operation's verdict, printing the first failure.
fn record(out: &mut Outcome, verdict: Result<(), String>) {
    out.attempted += 1;
    if let Err(e) = verdict {
        if out.failed == 0 {
            eprintln!("failed op: {e}");
        }
        out.failed += 1;
    }
}

/// `big4` and `small`: each op analyses and then lints every program.
fn analyse_and_lint(args: &Args) -> Result<Outcome, String> {
    let subjects = args.workload.subjects();
    let set_up = || -> Result<_, String> {
        let c0 = process_cpu();
        let expected = Expected::load(args.expected.as_deref(), args.scale)?;
        let programs = workload::generate(&subjects, args.scale);
        Ok((secs(process_cpu() - c0), expected, programs))
    };
    let (first_s, expected, programs) = set_up()?;
    // The set-up is repeated once per op, between ops, so its median
    // samples the same machine states as the ops do.
    let mut setup_s = vec![first_s];

    let mut out = Outcome::default();
    // One checked warm-up op, untimed, so lazy set-up is not measured.
    record(&mut out, frontdoor::op(&programs, &expected).1);

    let (mut analyze_cpu, mut lint_cpu, mut rss_mb) = (vec![], vec![], vec![]);
    let (mut analyze_ms, mut lint_ms) = (vec![], vec![]);
    let ticks = cpu_ticks();
    let t0 = Instant::now();
    while secs(t0.elapsed()) < args.seconds {
        setup_s.push(set_up()?.0);
        reset_peak_rss();
        let (times, verdict) = frontdoor::op(&programs, &expected);
        rss_mb.push(peak_rss_mb().unwrap_or(0.0));
        analyze_cpu.push(secs(times.analyze_cpu) * 1e3);
        lint_cpu.push(secs(times.lint_cpu) * 1e3);
        analyze_ms.push(secs(times.analyze) * 1e3);
        lint_ms.push(secs(times.lint) * 1e3);
        record(&mut out, verdict);
    }

    out.push("setup_s", "s", med(&setup_s));
    out.push("main_cpu_ms_p50", "ms", med(&analyze_cpu));
    out.push("aux_cpu_ms_p50", "ms", med(&lint_cpu));
    out.push("peak_rss_mb", "MB", med(&rss_mb));

    eprintln!(
        "{} ops of {} programs; {:.1}% of the machine's CPU time was stolen by the host:",
        analyze_ms.len(),
        programs.len(),
        100.0 * steal_share(ticks, cpu_ticks())
    );
    eprintln!("  analyze_ms_p50 {:.3} ms wall", med(&analyze_ms));
    if analyze_ms.len() >= 100 {
        let p90 = percentile(&mut analyze_ms, 0.9).unwrap_or(0.0);
        eprintln!("  analyze_ms_p90 {p90:.3} ms wall");
    }
    eprintln!("  lint_ms_p50    {:.3} ms wall", med(&lint_ms));
    Ok(out)
}

/// `serve`: a closed loop of seeded batches beside scheduled reloads.
fn serve(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SERVE_SETUPS {
        let c0 = process_cpu();
        let expected = Expected::load(args.expected.as_deref(), args.scale)?;
        let (name, module) = workload::generate(&Workload::Serve.subjects(), args.scale)
            .pop()
            .expect("serve has one program");
        let fsam = frontdoor::analyze(&module);
        let want = expected.entry(name)?.pts;
        let got = pts_digest(&module, &fsam.result);
        let oracle = Oracle::new(&module, fsam);
        let stream = Stream::new(args.seed, &oracle);
        let served = Served::spawn(&module, oracle.fsam())?;
        let warmed = serve::warm(&served, &stream);
        setup_s.push(secs(process_cpu() - c0));

        let verdict = if got == want {
            warmed
        } else {
            Err(format!(
                "{name}: points-to digest {got:016x}, expected {want:016x}"
            ))
        };
        record(&mut out, verdict);
        if let Some((old, ..)) = setup.replace((served, oracle, stream)) {
            Served::stop(old);
        }
    }
    let (served, oracle, mut stream) = setup.expect("at least one set-up");

    reset_peak_rss();
    let ticks = cpu_ticks();
    let window = Duration::from_secs_f64(args.seconds);
    let load = serve::load(&served, &oracle, &mut stream, window, Some(RELOAD_EVERY));
    let rss = peak_rss_mb().unwrap_or(0.0);
    served.stop();
    if let Some(f) = &load.first_failure {
        eprintln!("failed op: {f}");
    }
    out.attempted += load.batches + load.control_ops;
    out.failed += load.bad_batches + load.bad_control_ops;
    if load.reload_cpu_ms.is_empty() {
        return Err("no reload's server-thread CPU time could be read \
                    (/proc/self/task/<tid>/schedstat)"
            .to_string());
    }

    out.push("setup_s", "s", med(&setup_s));
    out.push("main_cpu_ms_p50", "ms", med(&load.cpu_us) / 1e3);
    out.push("aux_cpu_ms_p50", "ms", med(&load.reload_cpu_ms));
    out.push("peak_rss_mb", "MB", rss);

    let mut rtt = load.rtt_us.clone();
    eprintln!(
        "{} batches of {} queries, {} reloads; {:.1}% of the machine's CPU time was stolen by the host:",
        load.batches,
        serve::BATCH,
        load.reload_ms.len(),
        100.0 * steal_share(ticks, cpu_ticks())
    );
    match load.alias_hit_ratio() {
        Some(r) => eprintln!("  alias_hit_ratio {r:.4} (share of alias-cache lookups that hit)"),
        None => eprintln!("  alias_hit_ratio unavailable"),
    }
    eprintln!(
        "  rtt_us_p50     {:.1} us",
        percentile(&mut rtt, 0.5).unwrap_or(0.0)
    );
    eprintln!(
        "  rtt_us_p99     {:.1} us",
        percentile(&mut rtt, 0.99).unwrap_or(0.0)
    );
    eprintln!(
        "  queries_per_s  {:.0} 1/s",
        load.queries as f64 / secs(load.wall)
    );
    eprintln!(
        "  reload_ms_p50  {:.3} ms (round trip)",
        med(&load.reload_ms)
    );
    Ok(out)
}
