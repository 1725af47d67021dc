//! The stable front doors the end-to-end run drives, and the per-op check
//! of their outputs.

use std::time::{Duration, Instant};

use fsam::{Fsam, PhaseConfig, Pipeline};
use fsam_ir::Module;
use fsam_lint::{write_sarif, LintContext, Registry};
use fsam_query::QueryEngine;

use crate::expected::{self, pts_digest, Expected, LintTriple};
use crate::measure::process_cpu;

/// `Fsam::analyze`: the full configuration at the default worker count.
pub fn analyze(module: &Module) -> Fsam {
    Pipeline::for_module(module).run(PhaseConfig::full())
}

/// The `fsam-lint` sequence: capture a query engine, run the default
/// checkers, stream the SARIF log to memory. Returns the pinned totals.
pub fn lint(module: &Module, fsam: &Fsam) -> LintTriple {
    let engine = QueryEngine::from_fsam(module, fsam);
    let cx = LintContext::new(module, fsam, &engine);
    let registry = Registry::with_default_checkers();
    let report = registry.run(&cx);
    write_sarif(&cx, &registry, &report, None, None, &mut Vec::new())
        .expect("writing SARIF to memory cannot fail");
    LintTriple::of(&cx.reduction().stats)
}

/// Timings of one end-to-end operation over a program list.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTimes {
    /// Wall time of the op's analyses.
    pub analyze: Duration,
    /// Wall time of the op's lint passes.
    pub lint: Duration,
    /// Process CPU time of the op's analyses (all worker threads).
    pub analyze_cpu: Duration,
    /// Process CPU time of the op's lint passes.
    pub lint_cpu: Duration,
}

/// One end-to-end operation: analyse and then lint each program in turn,
/// checking every output against `expected`. Only the front-door calls
/// are timed, in wall and CPU time; the checks are not. `Err` names the
/// first mismatch.
pub fn op(programs: &[(&str, Module)], expected: &Expected) -> (OpTimes, Result<(), String>) {
    let mut times = OpTimes::default();
    let mut verdict = Ok(());
    for (name, module) in programs {
        let (t0, c0) = (Instant::now(), process_cpu());
        let fsam = analyze(module);
        let (t1, c1) = (Instant::now(), process_cpu());
        let lint = lint(module, &fsam);
        times.analyze += t1 - t0;
        times.analyze_cpu += c1 - c0;
        times.lint += t1.elapsed();
        times.lint_cpu += process_cpu() - c1;
        if verdict.is_ok() {
            verdict = expected.entry(name).and_then(|want| {
                expected::check(name, want, pts_digest(module, &fsam.result), lint)
            });
        }
    }
    (times, verdict)
}
