//! The traced pipeline: each layer's public function called from the
//! benchmark, in `Pipeline::run`'s order, with a span around every call
//! and the counters read from each call's public result.
//!
//! Nothing is traced inside the program. The traced pipeline runs the interleaving
//! and lock analyses one after the other (the pipeline runs them
//! concurrently), and value-flow and the solve at the same worker count as
//! the front door. Its final points-to and value-flow statistics are
//! checked against `Pipeline::run` on every program.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use fsam::par;
use fsam::{solve_par, Fsam, PhaseConfig, PhaseTimes};
use fsam_andersen::PreAnalysis;
use fsam_ir::icfg::Icfg;
use fsam_ir::Module;
use fsam_lint::{write_sarif, LintContext, Registry};
use fsam_mssa::Svfg;
use fsam_query::{AnalysisDb, Answer, Query, QueryEngine};
use fsam_threads::flow::precompute_contexts;
use fsam_threads::valueflow::{self, ValueFlowPlan};
use fsam_threads::{HbFacts, Interleaving, LockAnalysis, MhpBackend, ThreadModel};

use crate::alloc;
use crate::expected::LintTriple;
use crate::serve::{first_mismatch, Oracle, Stream};
use crate::spans::Spans;

/// Every per-layer metric the traced run prints, with its unit, in print
/// order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("andersen.ms", "ms"),
    ("andersen.rounds", "count"),
    ("andersen.pts_entries", "count"),
    ("andersen.peak_bytes", "B"),
    ("threads.model_ms", "ms"),
    ("threads.abstract", "count"),
    ("svfg.build_ms", "ms"),
    ("svfg.nodes", "count"),
    ("svfg.edges", "count"),
    ("svfg.mem_phis", "count"),
    ("svfg.peak_bytes", "B"),
    ("interleave.ms", "ms"),
    ("relation.ms", "ms"),
    ("relation.regions", "count"),
    ("hb.ms", "ms"),
    ("hb.regions", "count"),
    ("hb.ordered_bits", "count"),
    ("lock.ms", "ms"),
    ("lock.spans", "count"),
    ("valueflow.ms", "ms"),
    ("valueflow.aliased_pairs", "count"),
    ("valueflow.mhp_pairs", "count"),
    ("valueflow.lock_filtered", "count"),
    ("valueflow.edges", "count"),
    ("valueflow.edges_per_mhp_pair", "ratio"),
    ("valueflow.peak_bytes", "B"),
    ("svfg.insert_ms", "ms"),
    ("svfg.thread_edges_added", "count"),
    ("svfg.thread_classes", "count"),
    ("svfg.thread_junctions", "count"),
    ("solve.ms", "ms"),
    ("solve.seq_ms", "ms"),
    ("solve.par_speedup", "ratio"),
    ("solve.worklist_items", "count"),
    ("solve.delta_items", "count"),
    ("solve.recompute_items", "count"),
    ("solve.strong_updates", "count"),
    ("solve.weak_updates", "count"),
    ("solve.peak_pts_bytes", "B"),
    ("solve.peak_bytes", "B"),
    ("lint.engine_ms", "ms"),
    ("lint.reduce_ms", "ms"),
    ("lint.sarif_ms", "ms"),
    ("lint.candidates", "count"),
    ("lint.after_mhp", "count"),
    ("lint.after_lockset", "count"),
    ("lint.confirmed", "count"),
    ("lint.confirmed_per_candidate", "ratio"),
    ("lint.sarif_bytes", "B"),
    ("lint.peak_bytes", "B"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("engine.new_ms", "ms"),
    ("engine.cold_us_per_query", "us"),
    ("engine.cached_us_per_query", "us"),
    ("engine.hit_ratio", "ratio"),
    ("server.service_us_p50", "us"),
    ("server.wait_us_p50", "us"),
    ("server.alias_hit_ratio", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.uncovered_share", "ratio"),
];

/// Queries in the engine layer's cold and cached passes.
pub const ENGINE_QUERIES: usize = 4096;

/// Spans plus per-operation metric values.
#[derive(Default)]
pub struct Tracer {
    /// Every span recorded.
    pub spans: Spans,
    /// Values of finished operations.
    pub ops: Vec<BTreeMap<&'static str, f64>>,
    cur: BTreeMap<&'static str, f64>,
    /// Wall time of the most recently closed layer span.
    last: Duration,
}

impl Tracer {
    /// Times `f` in a span named `span`. With `ms`, adds the span's wall
    /// time to that metric; with `peak`, records the highest heap growth
    /// during the call (the maximum over the op's calls).
    pub fn layer<R>(
        &mut self,
        span: &'static str,
        ms: Option<&'static str>,
        peak: Option<&'static str>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let base = peak.map(|_| alloc::reset_peak());
        let id = self.spans.enter(span);
        let r = f(self);
        let d = self.spans.exit(id);
        self.last = d;
        if let Some(k) = ms {
            self.add(k, d.as_secs_f64() * 1e3);
        }
        if let (Some(k), Some(base)) = (peak, base) {
            self.max(k, alloc::peak_bytes().saturating_sub(base) as f64);
        }
        r
    }

    /// Adds `v` to the current op's metric `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.cur.entry(k).or_default() += v;
    }

    /// Raises the current op's metric `k` to at least `v`.
    pub fn max(&mut self, k: &'static str, v: f64) {
        let e = self.cur.entry(k).or_default();
        *e = e.max(v);
    }

    /// The current op's value of `k` (0 when unset).
    pub fn get(&self, k: &str) -> f64 {
        self.cur.get(k).copied().unwrap_or(0.0)
    }

    /// Starts operation `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.cur.clear();
        self.spans.set_op(op);
    }

    /// Finishes the current op: derives its ratios and stores its values.
    pub fn end_op(&mut self) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let derived = [
            (
                "valueflow.edges_per_mhp_pair",
                ratio(self.get("valueflow.edges"), self.get("valueflow.mhp_pairs")),
            ),
            (
                "solve.par_speedup",
                ratio(self.get("solve.seq_ms"), self.get("solve.ms")),
            ),
            (
                "lint.confirmed_per_candidate",
                ratio(self.get("lint.confirmed"), self.get("lint.candidates")),
            ),
            (
                "engine.cold_us_per_query",
                ratio(self.get("engine.cold_ms") * 1e3, self.get("engine.queries")),
            ),
            (
                "engine.cached_us_per_query",
                ratio(
                    self.get("engine.cached_ms") * 1e3,
                    self.get("engine.queries"),
                ),
            ),
            (
                "engine.hit_ratio",
                ratio(
                    self.get("engine.hits"),
                    self.get("engine.hits") + self.get("engine.misses"),
                ),
            ),
            (
                "trace.overhead_ms",
                self.get("trace.op_ms") - self.get("trace.untraced_ms"),
            ),
        ];
        for (k, v) in derived {
            self.cur.insert(k, v);
        }
        self.ops.push(std::mem::take(&mut self.cur));
    }
}

/// The analysis layers in `Pipeline::run`'s order on `threads` workers,
/// assembled into the same [`Fsam`] the front door returns.
pub fn analyze(t: &mut Tracer, module: &Module, threads: usize) -> Fsam {
    t.layer("analysis", Some("trace.op_ms"), None, |t| {
        let mut times = PhaseTimes::default();
        let pre = t.layer(
            "andersen",
            Some("andersen.ms"),
            Some("andersen.peak_bytes"),
            |_| PreAnalysis::run(module),
        );
        times.pre_analysis = t.last;
        t.add("andersen.rounds", pre.stats.rounds as f64);
        t.add("andersen.pts_entries", pre.stats.pts_entries as f64);

        let (icfg, tm, ctxs) = t.layer("threads.model", Some("threads.model_ms"), None, |_| {
            let icfg = Icfg::build(module, pre.call_graph());
            let tm = ThreadModel::build(module, &pre, &icfg);
            let ctxs = precompute_contexts(&icfg, pre.call_graph(), &tm);
            (icfg, tm, ctxs)
        });
        times.thread_model = t.last;
        t.add("threads.abstract", tm.len() as f64);

        let inter = t.layer("interleave", Some("interleave.ms"), None, |_| {
            Interleaving::compute(module, &icfg, &pre, &tm, &ctxs)
        });
        times.interleaving = t.last;
        let lock = t.layer("lock", Some("lock.ms"), None, |_| {
            LockAnalysis::compute(module, &icfg, &pre, &tm, &ctxs)
        });
        times.lock = t.last;
        t.add("lock.spans", lock.span_count as f64);

        let mhp = MhpBackend::Interleaving(Arc::new(inter));
        let rel = t.layer("relation", Some("relation.ms"), None, |_| mhp.relation());
        t.add("relation.regions", rel.region_count() as f64);

        let hb = t.layer("hb", Some("hb.ms"), None, |_| {
            HbFacts::build(module, &pre, &tm)
        });
        times.hb = t.last;
        t.add("hb.regions", hb.region_count() as f64);
        t.add("hb.ordered_bits", hb.ordered_bits() as f64);

        let base = t.layer(
            "svfg.build",
            Some("svfg.build_ms"),
            Some("svfg.peak_bytes"),
            |_| Svfg::build(module, &pre, &tm),
        );
        times.svfg = t.last;
        t.add("svfg.nodes", base.stats.nodes as f64);
        t.add("svfg.edges", base.stats.edges as f64);
        t.add("svfg.mem_phis", base.stats.mem_phis as f64);

        let vf = t.layer(
            "valueflow",
            Some("valueflow.ms"),
            Some("valueflow.peak_bytes"),
            |_| {
                if threads > 1 {
                    let plan = ValueFlowPlan::new(module, &icfg, &pre, &mhp, &rel, Some(&lock));
                    let (flows, _) =
                        par::run_tasks(threads, plan.objects(), |_, i, _| plan.object_flow(i));
                    plan.merge(flows)
                } else {
                    valueflow::compute(module, &icfg, &pre, &mhp, &rel, Some(&lock), false)
                }
            },
        );
        times.value_flow = t.last;
        t.add("valueflow.aliased_pairs", vf.stats.aliased_pairs as f64);
        t.add("valueflow.mhp_pairs", vf.stats.mhp_pairs as f64);
        t.add("valueflow.lock_filtered", vf.stats.lock_filtered as f64);
        t.add("valueflow.edges", vf.stats.edges as f64);

        let (svfg, ins) = t.layer("svfg.insert", Some("svfg.insert_ms"), None, |_| {
            let mut svfg = base.clone();
            let ins = svfg.insert_thread_edges_grouped(&vf.edges);
            (svfg, ins)
        });
        times.value_flow += t.last;
        t.add("svfg.thread_edges_added", ins.edges_added as f64);
        t.add("svfg.thread_classes", ins.classes as f64);
        t.add("svfg.thread_junctions", ins.junctions as f64);

        let result = t.layer("solve", Some("solve.ms"), Some("solve.peak_bytes"), |_| {
            solve_par(module, &pre, &svfg, threads)
        });
        times.sparse_solve = t.last;
        let s = &result.stats;
        t.add("solve.worklist_items", s.processed as f64);
        t.add("solve.delta_items", s.delta_items as f64);
        t.add("solve.recompute_items", s.recompute_items as f64);
        t.add("solve.strong_updates", s.strong_updates as f64);
        t.add("solve.weak_updates", s.weak_updates as f64);
        t.max("solve.peak_pts_bytes", s.peak_pts_bytes as f64);

        Fsam {
            pre: Arc::new(pre),
            icfg: Arc::new(icfg),
            tm: Arc::new(tm),
            svfg,
            mhp,
            mhp_rel: Arc::new(rel),
            hb: Arc::new(hb),
            lock: Some(Arc::new(lock)),
            ctxs: Arc::new(ctxs),
            vf_stats: vf.stats,
            result,
            times,
            config: PhaseConfig::full(),
        }
    })
}

/// The sparse solve again at one worker, for `solve.par_speedup`. `Err`
/// when its points-to differs from the parallel solve's.
pub fn solve_seq(t: &mut Tracer, module: &Module, fsam: &Fsam) -> Result<(), String> {
    let seq = t.layer("solve.seq", Some("solve.seq_ms"), None, |_| {
        solve_par(module, &fsam.pre, &fsam.svfg, 1)
    });
    if seq.points_to_eq(&fsam.result) {
        Ok(())
    } else {
        Err("the one-worker solve's points-to differs from the parallel solve's".into())
    }
}

/// The `fsam-lint` layers: engine capture, the checkers (which run the
/// staged reducer), and the SARIF stream.
pub fn lint(t: &mut Tracer, module: &Module, fsam: &Fsam) -> LintTriple {
    t.layer("lint", None, Some("lint.peak_bytes"), |t| {
        let engine = t.layer("lint.engine", Some("lint.engine_ms"), None, |_| {
            QueryEngine::from_fsam(module, fsam)
        });
        let (cx, registry, report) = t.layer("lint.reduce", Some("lint.reduce_ms"), None, |_| {
            let cx = LintContext::new(module, fsam, &engine);
            let registry = Registry::with_default_checkers();
            let report = registry.run(&cx);
            (cx, registry, report)
        });
        let bytes = t.layer("lint.sarif", Some("lint.sarif_ms"), None, |_| {
            let mut sarif = Vec::new();
            write_sarif(&cx, &registry, &report, None, None, &mut sarif)
                .expect("writing SARIF to memory cannot fail")
                .bytes
        });
        let stats = cx.reduction().stats;
        t.add("lint.candidates", stats.candidates as f64);
        t.add("lint.after_mhp", stats.after_mhp() as f64);
        t.add("lint.after_lockset", stats.after_lockset() as f64);
        t.add("lint.confirmed", stats.confirmed as f64);
        t.add("lint.sarif_bytes", bytes as f64);
        LintTriple::of(&stats)
    })
}

/// The snapshot layers (capture, encode, decode) and the query engine
/// over the decoded snapshot: construction, then one seeded slab of
/// [`ENGINE_QUERIES`] queries cold and again cached. Every answer is
/// checked against `oracle`.
pub fn snapshot_and_engine(
    t: &mut Tracer,
    module: &Module,
    oracle: &Oracle,
    seed: u64,
) -> Result<(), String> {
    let fsam = oracle.fsam();
    let bytes = t.layer("snapshot", None, None, |t| {
        let db = t.layer(
            "snapshot.capture",
            Some("snapshot.capture_ms"),
            None,
            |_| AnalysisDb::capture(module, fsam),
        );
        t.layer("snapshot.encode", Some("snapshot.encode_ms"), None, |_| {
            db.to_bytes()
        })
    });
    t.add("snapshot.bytes", bytes.len() as f64);
    let mut stream = Stream::new(seed, oracle);
    let (mut queries, mut want): (Vec<Query>, Vec<Answer>) = (Vec::new(), Vec::new());
    stream.next_batch(oracle, ENGINE_QUERIES, &mut queries, &mut want);
    let (cold, cached, engine) = t.layer("engine", None, None, |t| {
        let db = t
            .layer("snapshot.decode", Some("snapshot.decode_ms"), None, |_| {
                AnalysisDb::from_bytes(&bytes)
            })
            .map_err(|e| format!("snapshot decode: {e:?}"))?;
        let engine = t.layer("engine.new", Some("engine.new_ms"), None, |_| {
            QueryEngine::new(db)
        });
        let cold = t.layer("engine.cold", Some("engine.cold_ms"), None, |_| {
            engine.query_many(&queries)
        });
        let cached = t.layer("engine.cached", Some("engine.cached_ms"), None, |_| {
            engine.query_many(&queries)
        });
        Ok::<_, String>((cold, cached, engine))
    })?;
    let cache = engine.cache_stats();
    t.add("engine.queries", queries.len() as f64);
    t.add("engine.hits", cache.hits as f64);
    t.add("engine.misses", cache.misses as f64);
    for got in [&cold, &cached] {
        if let Some(m) = first_mismatch(&queries, got, &want) {
            return Err(format!("query engine: {m}"));
        }
    }
    Ok(())
}
