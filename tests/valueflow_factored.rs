//! Factored value-flow identity: deciding each interference signature pair
//! once must reproduce the per-pair `[THREAD-VF]` loop exactly.
//!
//! The reference below is that loop as it ran before factoring: every
//! store × access pair of every shared object, the statement-level MHP bit,
//! the Definition 6 filter over the full instance cross-product, and the
//! `(store, access, object)` triples regrouped through ordered maps into
//! complete bipartite classes. Against it, the pipeline's value flow must
//! have equal statistics, an equal expanded triple set, the same classes
//! in the same order, a node-for-node identical SVFG after insertion, and
//! equal points-to sets — on every suite program, both MHP backends, with
//! and without the lock filter, the blind *No-Value-Flow* ablation, and at
//! one and two workers.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use fsam::{solve_par, Fsam, PhaseConfig, Pipeline};
use fsam_andersen::PreAnalysis;
use fsam_ir::rng::SmallRng;
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_mssa::Svfg;
use fsam_pts::MemId;
use fsam_suite::{Program, Scale, SyncProgram};
use fsam_threads::mhp::MhpOracle;
use fsam_threads::{LockAnalysis, SharedObjects, ThreadClass, ThreadValueFlow, ValueFlowStats};

type Triple = (StmtId, StmtId, MemId);

/// Per object: the stores that may write it and the loads/stores that may
/// access it.
fn index_accesses(
    module: &Module,
    pre: &PreAnalysis,
) -> (HashMap<MemId, Vec<StmtId>>, HashMap<MemId, Vec<StmtId>>) {
    let mut stores_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    let mut accesses_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    for (sid, stmt) in module.stmts() {
        match stmt.kind {
            StmtKind::Store { ptr, .. } => {
                for o in pre.pt_var(ptr).iter() {
                    stores_of.entry(o).or_default().push(sid);
                    accesses_of.entry(o).or_default().push(sid);
                }
            }
            StmtKind::Load { ptr, .. } => {
                for o in pre.pt_var(ptr).iter() {
                    accesses_of.entry(o).or_default().push(sid);
                }
            }
            _ => {}
        }
    }
    (stores_of, accesses_of)
}

/// Whether every MHP instance pair of `(store, access)` is a
/// non-interference pair on `o`.
fn all_instances_non_interfering(
    fsam: &Fsam,
    lock: &LockAnalysis,
    store: StmtId,
    access: StmtId,
    o: MemId,
) -> bool {
    for (t1, c1) in fsam.mhp.instances(store) {
        for (t2, c2) in fsam.mhp.instances(access) {
            let (i1, i2) = ((t1, c1, store), (t2, c2, access));
            if fsam.mhp.mhp_instances(&fsam.icfg, i1, i2)
                && !lock.non_interference(&fsam.icfg, i1, i2, o)
            {
                return false;
            }
        }
    }
    true
}

/// The per-pair reference value flow of `module` under `fsam`'s inputs.
fn reference(module: &Module, fsam: &Fsam) -> (ValueFlowStats, Vec<Triple>) {
    let (pre, rel) = (&fsam.pre, &fsam.mhp_rel);
    let mut stats = ValueFlowStats::default();
    let mut triples = Vec::new();
    let (stores_of, accesses_of) = index_accesses(module, pre);
    if !fsam.config.value_flow {
        let flat = |m: &HashMap<MemId, Vec<StmtId>>| {
            let mut v: Vec<StmtId> = m.values().flatten().copied().collect();
            v.sort();
            v.dedup();
            v
        };
        for &s in &flat(&stores_of) {
            for &a in &flat(&accesses_of) {
                if s == a || !rel.mhp_stmt(s, a) {
                    continue;
                }
                stats.mhp_pairs += 1;
                if let StmtKind::Store { ptr, .. } = module.stmt(s).kind {
                    for o in pre.pt_var(ptr).iter() {
                        triples.push((s, a, o));
                        stats.edges += 1;
                    }
                }
            }
        }
        return (stats, triples);
    }
    let shared = SharedObjects::compute(module, pre);
    let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
    objects.sort();
    objects.retain(|&o| accesses_of.get(&o).map_or(0, Vec::len) >= 2 && shared.is_shared(pre, o));
    stats.shared_objects = objects.len();
    for &o in &objects {
        for &s in &stores_of[&o] {
            for &a in &accesses_of[&o] {
                let par = rel.mhp_stmt(s, a);
                if s != a {
                    stats.aliased_pairs += 1;
                }
                if !par {
                    continue;
                }
                stats.mhp_pairs += 1;
                if let Some(lock) = fsam.lock.as_deref() {
                    if all_instances_non_interfering(fsam, lock, s, a, o) {
                        stats.lock_filtered += 1;
                        continue;
                    }
                }
                triples.push((s, a, o));
                stats.edges += 1;
            }
        }
    }
    (stats, triples)
}

/// The regroup pass: per object, stores partitioned by their exact access
/// set, classes ordered by access list.
fn regroup(triples: &[Triple]) -> Vec<ThreadClass> {
    let mut by_obj: BTreeMap<MemId, BTreeMap<StmtId, BTreeSet<StmtId>>> = BTreeMap::new();
    for &(s, a, o) in triples {
        by_obj.entry(o).or_default().entry(s).or_default().insert(a);
    }
    let mut out = Vec::new();
    for (obj, access_sets) in by_obj {
        let mut classes: BTreeMap<Vec<StmtId>, Vec<StmtId>> = BTreeMap::new();
        for (s, accs) in access_sets {
            classes
                .entry(accs.into_iter().collect())
                .or_default()
                .push(s);
        }
        out.extend(classes.into_iter().map(|(accesses, stores)| ThreadClass {
            obj,
            stores,
            accesses,
        }));
    }
    out
}

fn expand(classes: &[ThreadClass]) -> BTreeSet<Triple> {
    let mut out = BTreeSet::new();
    for c in classes {
        for &s in &c.stores {
            for &a in &c.accesses {
                out.insert((s, a, c.obj));
            }
        }
    }
    out
}

/// Runs the pipeline's value flow for `fsam`'s configuration again, as a
/// [`ThreadValueFlow`] with its classes.
fn factored(module: &Module, fsam: &Fsam) -> ThreadValueFlow {
    fsam_threads::valueflow::compute(
        module,
        &fsam.icfg,
        &fsam.pre,
        &fsam.mhp,
        &fsam.mhp_rel,
        fsam.lock.as_deref(),
        !fsam.config.value_flow,
    )
}

fn assert_same_graph(a: &Svfg, b: &Svfg, what: &str) {
    assert_eq!(a.node_count(), b.node_count(), "{what}: node counts");
    assert_eq!(a.stats, b.stats, "{what}: SVFG statistics");
    for n in a.node_ids() {
        assert_eq!(a.kind(n), b.kind(n), "{what}: kind of {n:?}");
        assert_eq!(a.succs(n), b.succs(n), "{what}: succs of {n:?}");
        assert_eq!(a.preds(n), b.preds(n), "{what}: preds of {n:?}");
        for &(m, _) in a.succs(n) {
            assert_eq!(
                a.is_thread_edge(n, m),
                b.is_thread_edge(n, m),
                "{what}: thread mark {n:?} -> {m:?}"
            );
        }
    }
}

/// Checks one pipeline run against the reference; returns its
/// lock-filtered pair count.
fn check(module: &Module, fsam: &Fsam, what: &str) -> usize {
    let (stats, triples) = reference(module, fsam);
    assert_eq!(fsam.vf_stats, stats, "{what}: value-flow statistics");
    let vf = factored(module, fsam);
    assert_eq!(vf.stats, stats, "{what}: recomputed statistics");
    let classes = regroup(&triples);
    assert_eq!(
        expand(&vf.edges),
        triples.iter().copied().collect(),
        "{what}: expanded (store, access, object) set"
    );
    assert_eq!(vf.edges, classes, "{what}: classes and their order");

    let mut svfg = Svfg::build(module, &fsam.pre, &fsam.tm);
    svfg.insert_thread_edges_grouped(&classes);
    assert_same_graph(&fsam.svfg, &svfg, what);
    let result = solve_par(module, &fsam.pre, &svfg, 1);
    assert!(fsam.result.points_to_eq(&result), "{what}: points-to");
    stats.lock_filtered
}

fn configs() -> [PhaseConfig; 5] {
    let pcg_no_lock = PhaseConfig {
        interleaving: false,
        ..PhaseConfig::no_lock()
    };
    [
        PhaseConfig::full(),
        PhaseConfig::no_interleaving(),
        PhaseConfig::no_lock(),
        pcg_no_lock,
        PhaseConfig::no_value_flow(),
    ]
}

/// Checks every configuration at one and two workers; returns the
/// full configuration's lock-filtered pairs.
fn check_module(module: &Module, name: &str) -> usize {
    let mut filtered = 0;
    for threads in [1, 2] {
        let pipeline = Pipeline::for_module(module).with_threads(threads);
        for config in configs() {
            let fsam = pipeline.run(config);
            let f = check(module, &fsam, &format!("{name}/{config:?}/{threads}w"));
            if config == PhaseConfig::full() {
                filtered += f;
            }
        }
    }
    filtered
}

/// The ten Table 1 programs and the three sync programs.
#[test]
fn factored_value_flow_matches_per_pair_reference_on_the_suite() {
    for p in Program::all() {
        check_module(&p.generate(Scale::SMOKE), p.name());
    }
    for p in SyncProgram::all() {
        check_module(&p.generate(Scale::SMOKE), p.name());
    }
}

// ------------------------------------------------ lock-span random programs --

/// A random program whose workers are forked in a loop (so each is
/// multi-forked and MHP with itself) and take a lock around shared churn.
fn locked_module(rng: &mut SmallRng) -> Module {
    use fsam_ir::ModuleBuilder;
    use fsam_suite::mill::{mixed_body, Mill};

    let workers = rng.gen_range(1usize..4);
    let body = rng.gen_range(10usize..40);
    let seed = rng.next_u64();
    let mut mb = ModuleBuilder::new();
    let g1 = mb.global("g1");
    let g2 = mb.global("g2");
    let arr = mb.global_array("buf");
    let lk = mb.global("lk");
    let mut worker_ids = Vec::new();
    for w in 0..workers {
        let id = mb.declare_func(&format!("worker{w}"), &["arg"]);
        let mut f = mb.define_func(id);
        let local = f.local(&format!("local{w}"));
        let lptr = f.addr("l", lk);
        {
            let mut mill = Mill::new(&mut f, vec![g1, g2, arr], vec![local], seed ^ w as u64, "w");
            mill.locked_region(lptr, 4);
            mixed_body(&mut mill, body, seed.wrapping_add(w as u64));
            mill.locked_region(lptr, 3);
        }
        f.ret(None);
        f.finish();
        worker_ids.push(id);
    }
    let mut f = mb.func("main", &[]);
    let arg = f.addr("arg", g1);
    let header = f.block("h");
    let loop_body = f.block("b");
    let exit = f.block("x");
    f.jump(header);
    f.switch_to(header);
    f.branch(loop_body, exit);
    f.switch_to(loop_body);
    for (w, &id) in worker_ids.iter().enumerate() {
        f.fork(&format!("t{w}"), id, Some(arg));
    }
    f.jump(header);
    f.switch_to(exit);
    {
        let mut mill = Mill::new(&mut f, vec![g1, g2], vec![], seed ^ 0xFF, "m");
        mixed_body(&mut mill, body / 2, seed ^ 0xF0);
    }
    f.ret(None);
    f.finish();
    mb.build()
}

/// Whether some MHP pair the reference keeps or filters has lock-span
/// members on both sides — the pairs the factored plan decides per object.
fn has_span_pair(module: &Module, fsam: &Fsam) -> bool {
    let Some(lock) = fsam.lock.as_deref() else {
        return false;
    };
    let in_span = |s: StmtId| {
        fsam.mhp
            .instances(s)
            .into_iter()
            .any(|(t, c)| lock.in_span(t, c, s))
    };
    let (stores_of, accesses_of) = index_accesses(module, &fsam.pre);
    stores_of.iter().any(|(o, stores)| {
        stores.iter().any(|&s| {
            in_span(s)
                && accesses_of[o]
                    .iter()
                    .any(|&a| fsam.mhp_rel.mhp_stmt(s, a) && in_span(a))
        })
    })
}

/// Multi-forked workers inside lock spans drive the exact per-object path;
/// over the seeds it must really filter pairs and meet span-member pairs.
#[test]
fn factored_value_flow_matches_reference_on_locked_random_programs() {
    let mut rng = SmallRng::seed_from_u64(0x10C5_F00D);
    let (mut filtered, mut span_pairs) = (0, 0);
    for case in 0..12 {
        let module = locked_module(&mut rng);
        fsam_ir::verify::verify_module(&module)
            .unwrap_or_else(|e| panic!("case {case}: invalid SSA: {e:?}"));
        filtered += check_module(&module, &format!("case {case}"));
        let fsam = Pipeline::for_module(&module).run(PhaseConfig::full());
        span_pairs += usize::from(has_span_pair(&module, &fsam));
    }
    assert!(filtered > 0, "no pair was lock-filtered over the seeds");
    assert!(
        span_pairs > 0,
        "no MHP pair had lock-span members on both sides"
    );
}
