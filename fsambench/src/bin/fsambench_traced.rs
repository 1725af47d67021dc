//! The traced run: per-layer time, work and heap from the benchmark's own
//! spans around each layer's public call.
//!
//! ```text
//! fsambench-traced --workload big4|small|serve --seed N --seconds S --trace 1
//! ```
//!
//! Each op runs the traced pipeline on every program of the workload
//! (`serve`: on x264, for the first half of the run), checks the traced
//! points-to against `Pipeline::run` and the expected outputs, and times
//! the same programs through the front door for the tracing overhead. A
//! closed-loop window against an in-process server (with reloads on
//! `serve`) then measures the serving layer. Spans are written to
//! `.bench_out/spans-<workload>-seed<N>.jsonl` when the run ends; the
//! per-layer self-time shares go to standard error.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fsam::{Fsam, PhaseConfig, Pipeline};
use fsam_ir::Module;
use fsambench::alloc::CountingAlloc;
use fsambench::cli::Args;
use fsambench::expected::{self, pts_digest, Expected};
use fsambench::frontdoor;
use fsambench::layers::{self, Tracer, PER_LAYER};
use fsambench::measure::{median, percentile};
use fsambench::report::Outcome;
use fsambench::serve::{self, Oracle, Served, Stream, RELOAD_EVERY};
use fsambench::workload::{self, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Spans that group layer calls; the share of their wall time that their
/// child layer spans leave uncovered is `trace.uncovered_share`.
const GROUPS: &[&str] = &["analysis", "lint", "snapshot", "engine"];

/// The serving window of `big4` and `small` (no reloads there).
const PROBE: Duration = Duration::from_secs(1);

fn main() {
    let args = Args::from_env();
    if !args.trace {
        fail("this binary is the traced run; fsambench serves --trace 0");
    }
    run(&args).unwrap_or_else(|e| fail(&e)).finish()
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// A program with its `Pipeline::run` reference result.
struct Program {
    name: &'static str,
    module: Module,
    reference: Fsam,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let expected = Expected::load(args.expected.as_deref(), args.scale)?;
    let programs: Vec<Program> = workload::generate(&args.workload.subjects(), args.scale)
        .into_iter()
        .map(|(name, module)| {
            let reference = Pipeline::for_module(&module).run(PhaseConfig::full());
            Program {
                name,
                module,
                reference,
            }
        })
        .collect();
    let threads = fsam::thread_count();
    let (layer_window, serve_window) = match args.workload {
        Workload::Serve => {
            let half = Duration::from_secs_f64(args.seconds / 2.0);
            (half, half)
        }
        _ => (Duration::from_secs_f64(args.seconds), PROBE),
    };

    let mut out = Outcome::default();
    let mut t = Tracer::default();
    let mut last = None;
    let t0 = Instant::now();
    let mut op = 0u64;
    while op == 0 || t0.elapsed() < layer_window {
        t.begin_op(op);
        // Alternate which side runs first so neither always meets warm
        // caches.
        let front_first = op % 2 == 1;
        if front_first {
            front_door(&mut t, &programs);
        }
        let id = t.spans.enter("op");
        let mut verdict = Ok(());
        for p in &programs {
            let pid = t.spans.enter("program");
            let checked = traced_program(&mut t, p, &expected, threads, args.seed);
            t.spans.exit(pid);
            match checked {
                Ok(oracle) => last = Some((p, oracle)),
                Err(e) if verdict.is_ok() => verdict = Err(e),
                Err(_) => {}
            }
        }
        t.spans.exit(id);
        if !front_first {
            front_door(&mut t, &programs);
        }
        t.end_op();
        out.attempted += 1;
        if let Err(e) = verdict {
            if out.failed == 0 {
                eprintln!("failed op {op}: {e}");
            }
            out.failed += 1;
        }
        op += 1;
    }
    uncovered_shares(&mut t);

    // The serving layer: client round trip against the server's own
    // service time, over the last program's snapshot.
    let (p, oracle) = last.ok_or("no program passed its checks")?;
    let served = Served::spawn(&p.module, oracle.fsam())?;
    let mut stream = Stream::new(args.seed, &oracle);
    let reloads = (args.workload == Workload::Serve).then_some(RELOAD_EVERY);
    let warmed = serve::warm(&served, &stream);
    let load = serve::load(&served, &oracle, &mut stream, serve_window, reloads);
    let service = serve::service_us_p50(&served);
    served.stop();
    out.attempted += 2 + load.batches + load.control_ops;
    out.failed += load.bad_batches + load.bad_control_ops;
    if let Some(e) = &load.first_failure {
        eprintln!("failed serving op: {e}");
    }
    if let Err(e) = warmed {
        eprintln!("failed serving op: {e}");
        out.failed += 1;
    }
    let service = service.unwrap_or_else(|e| {
        eprintln!("failed serving op: {e}");
        out.failed += 1;
        0.0
    });
    let rtt_p50 = percentile(&mut load.rtt_us.clone(), 0.5).unwrap_or(0.0);

    for &(name, unit) in PER_LAYER {
        let value = match name {
            "server.service_us_p50" => service,
            "server.wait_us_p50" => rtt_p50 - service,
            "server.alias_hit_ratio" => load.alias_hit_ratio().unwrap_or(0.0),
            _ => {
                let per_op: Vec<f64> = t
                    .ops
                    .iter()
                    .map(|o| o.get(name).copied().unwrap_or(0.0))
                    .collect();
                median(&per_op).unwrap_or(0.0)
            }
        };
        out.push(name, unit, value);
    }
    report_shares(&t, args);
    write_spans(&t, args);
    Ok(out)
}

/// The traced pipeline, the identity and output checks, the layers behind
/// lint, snapshot and query engine, for one program. Returns the oracle
/// over the traced pipeline's result.
fn traced_program(
    t: &mut Tracer,
    p: &Program,
    expected: &Expected,
    threads: usize,
    seed: u64,
) -> Result<Oracle, String> {
    let fsam = layers::analyze(t, &p.module, threads);
    if !fsam.result.points_to_eq(&p.reference.result) {
        return Err(format!(
            "{}: traced points-to differs from Pipeline::run",
            p.name
        ));
    }
    if fsam.vf_stats != p.reference.vf_stats {
        return Err(format!(
            "{}: traced value-flow stats {:?} differ from Pipeline::run's {:?}",
            p.name, fsam.vf_stats, p.reference.vf_stats
        ));
    }
    layers::solve_seq(t, &p.module, &fsam).map_err(|e| format!("{}: {e}", p.name))?;
    let lint = layers::lint(t, &p.module, &fsam);
    let want = expected.entry(p.name)?;
    expected::check(p.name, want, pts_digest(&p.module, &fsam.result), lint)?;
    let oracle = Oracle::new(&p.module, fsam);
    layers::snapshot_and_engine(t, &p.module, &oracle, seed)
        .map_err(|e| format!("{}: {e}", p.name))?;
    Ok(oracle)
}

/// Times the op's programs through the front door, untraced, for
/// `trace.untraced_ms` (the counting allocator is active on both sides).
fn front_door(t: &mut Tracer, programs: &[Program]) {
    let mut total = Duration::ZERO;
    for p in programs {
        let t0 = Instant::now();
        let fsam = frontdoor::analyze(&p.module);
        total += t0.elapsed();
        drop(fsam);
    }
    t.add("trace.untraced_ms", total.as_secs_f64() * 1e3);
}

/// Per op: the share of the grouping spans' wall time not covered by their
/// layer spans.
fn uncovered_shares(t: &mut Tracer) {
    let self_times = t.spans.self_times();
    let mut per_op: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for s in t.spans.all() {
        if GROUPS.contains(&s.name) {
            let e = per_op.entry(s.op).or_default();
            e.0 += self_times[s.id].as_secs_f64();
            e.1 += s.duration().as_secs_f64();
        }
    }
    for (op, (own, total)) in per_op {
        if let Some(values) = t.ops.get_mut(op as usize) {
            values.insert(
                "trace.uncovered_share",
                if total > 0.0 { own / total } else { 0.0 },
            );
        }
    }
}

/// Prints, for each span that encloses others, how its wall time splits
/// among its child spans (and its own, uncovered, self time), to standard
/// error.
fn report_shares(t: &Tracer, args: &Args) {
    let spans = t.spans.all();
    let self_times = t.spans.self_times();
    let mut total: BTreeMap<&str, f64> = BTreeMap::new();
    let mut own: BTreeMap<&str, f64> = BTreeMap::new();
    let mut parts: BTreeMap<&str, BTreeMap<&str, f64>> = BTreeMap::new();
    for s in spans {
        *total.entry(s.name).or_default() += s.duration().as_secs_f64();
        *own.entry(s.name).or_default() += self_times[s.id].as_secs_f64();
        if let Some(p) = s.parent {
            *parts
                .entry(spans[p].name)
                .or_default()
                .entry(s.name)
                .or_default() += s.duration().as_secs_f64();
        }
    }
    let ops = t.ops.len().max(1) as f64;
    eprintln!(
        "wall-time shares over {} traced {} ops:",
        t.ops.len(),
        args.workload.name()
    );
    for group in ["op", "program", "analysis", "lint", "snapshot", "engine"] {
        let (Some(&whole), Some(children)) = (total.get(group), parts.get(group)) else {
            continue;
        };
        let mut rows: Vec<(&str, f64)> = children.iter().map(|(&n, &d)| (n, d)).collect();
        rows.push(("(self)", own[group]));
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let shares: Vec<String> = rows
            .iter()
            .map(|(n, d)| format!("{n} {:.1}%", 100.0 * d / whole.max(f64::MIN_POSITIVE)))
            .collect();
        eprintln!(
            "  {group} ({:.1} ms/op): {}",
            whole * 1e3 / ops,
            shares.join(", ")
        );
    }
}

/// Writes the spans as JSON lines under `.bench_out/`.
fn write_spans(t: &Tracer, args: &Args) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.spans.to_jsonl()));
    match written {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), t.spans.all().len()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}
