//! The value-flow analysis — paper §3.3.2, rule `[THREAD-VF]`.
//!
//! For every MHP store-load and store-store pair whose pointers share a
//! pointed-to object (`o ∈ AS(*p, *q)` from the pre-analysis), a
//! thread-aware def-use edge is produced; the lock analysis (Definition 6)
//! filters the pairs whose every MHP instance pair is a non-interference
//! pair. Statements with equal *interference signatures* get equal
//! verdicts against any partner, so each signature pair is decided once and
//! the edges come out as complete bipartite [`ThreadClass`]es (DESIGN §1.5).
//!
//! The *No-Value-Flow* ablation of Figure 12 disregards the aliasing
//! condition (`blind` mode): every MHP store/access pair gets edges for all
//! of the store's target objects, flooding the sparse solver with
//! unnecessary value flows — exactly the behaviour whose cost §4.4
//! quantifies.

use std::collections::HashMap;

use fsam_andersen::PreAnalysis;
use fsam_ir::context::CtxId;
use fsam_ir::icfg::Icfg;
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_pts::MemId;

use crate::lock::LockAnalysis;
use crate::mhp::MhpOracle;
use crate::model::ThreadId;
use crate::relation::MhpRelation;
use crate::shared::SharedObjects;

/// Statistics of the value-flow phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValueFlowStats {
    /// Objects with accesses from more than one thread.
    pub shared_objects: usize,
    /// Store/access pairs with a common object (candidate `aliased pairs`).
    pub aliased_pairs: usize,
    /// Candidates that may happen in parallel.
    pub mhp_pairs: usize,
    /// Pairs removed by the lock analysis (Definition 6).
    pub lock_filtered: usize,
    /// Thread-aware def-use edges produced.
    pub edges: usize,
}

impl ValueFlowStats {
    /// Exports the phase counters onto `span` under the `vf.` namespace
    /// (the Figure 10/11 columns: candidate aliased pairs, MHP-surviving
    /// pairs, lock-filtered pairs, edges produced).
    pub fn export_trace(&self, span: &fsam_trace::Span<'_>) {
        span.counter("vf.shared_objects", self.shared_objects as u64);
        span.counter("vf.aliased_pairs", self.aliased_pairs as u64);
        span.counter("vf.mhp_pairs", self.mhp_pairs as u64);
        span.counter("vf.lock_filtered", self.lock_filtered as u64);
        span.counter("vf.edges", self.edges as u64);
    }
}

/// Thread-aware def-use edges on one object, as a complete bipartite
/// class: every store interferes with every access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadClass {
    /// The object flowing.
    pub obj: MemId,
    /// The interfering stores, ascending.
    pub stores: Vec<StmtId>,
    /// The loads and stores they interfere with, ascending.
    pub accesses: Vec<StmtId>,
}

/// The thread-aware def-use edges to append to the SVFG.
#[derive(Debug, Default)]
pub struct ThreadValueFlow {
    /// Classes by ascending object, then by ascending access list.
    pub edges: Vec<ThreadClass>,
    /// Phase statistics.
    pub stats: ValueFlowStats,
}

/// An interference signature: its statements share the MHP region and the
/// set of `(thread, instance key)`, or it is a lock-span member's own.
struct Signature {
    region: Option<u32>,
    /// One instance per distinct key, or every instance of a span member.
    reps: Vec<(ThreadId, CtxId, StmtId)>,
    span: bool,
}

/// The value-flow analysis decomposed into independent per-object units.
///
/// [`ValueFlowPlan::new`] decides every signature pair once; each
/// [`ValueFlowPlan::object_flow`] reads only the plan, so objects evaluate in
/// any order, and [`ValueFlowPlan::merge`] folds them back in object order.
pub struct ValueFlowPlan<'a> {
    icfg: &'a Icfg,
    oracle: &'a (dyn MhpOracle + Sync),
    lock: Option<&'a LockAnalysis>,
    stores_of: HashMap<MemId, Vec<StmtId>>,
    accesses_of: HashMap<MemId, Vec<StmtId>>,
    /// The shared, multiply-accessed objects, ascending — one work unit each.
    objects: Vec<MemId>,
    /// Signature id per statement index (`u32::MAX`: not indexed).
    sig_of: Vec<u32>,
    sigs: Vec<Signature>,
    /// Per (store, access) signature pair: `None` when not MHP, else whether
    /// the lock filter drops it (pairs of span members decide per object).
    verdicts: Vec<Option<bool>>,
}

/// One object's contribution to the value flow: its classes plus the pair
/// counts its signature pairs accumulated.
#[derive(Debug, Default)]
pub struct ObjectFlow {
    classes: Vec<ThreadClass>,
    stats: ValueFlowStats,
}

impl<'a> ValueFlowPlan<'a> {
    /// Builds the plan: indexes stores/accesses per object, selects the
    /// objects that can produce edges (accessed at least twice, and shared
    /// across threads), and decides every signature pair.
    pub fn new(
        module: &'a Module,
        icfg: &'a Icfg,
        pre: &'a PreAnalysis,
        oracle: &'a (dyn MhpOracle + Sync),
        rel: &'a MhpRelation,
        lock: Option<&'a LockAnalysis>,
    ) -> ValueFlowPlan<'a> {
        // The sharedness half of the value-flow analysis: objects that never
        // escape their creating frame cannot interfere across threads (§4.4:
        // "non-shared memory locations").
        let shared = SharedObjects::compute(module, pre);
        let (stores_of, accesses_of) = index_accesses(module, pre);
        let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
        objects.sort();
        objects
            .retain(|&o| accesses_of.get(&o).map_or(0, Vec::len) >= 2 && shared.is_shared(pre, o));

        let (mut sig_of, mut sigs, mut ids) =
            (vec![u32::MAX; module.stmt_count()], vec![], HashMap::new());
        for s in objects.iter().flat_map(|o| &accesses_of[o]).copied() {
            if sig_of[s.index()] != u32::MAX {
                continue;
            }
            let insts = lock.map_or(vec![], |_| oracle.instances(s));
            let mut reps: Vec<_> = insts.into_iter().map(|(t, c)| (t, c, s)).collect();
            let span = lock.is_some_and(|l| reps.iter().any(|&(t, c, _)| l.in_span(t, c, s)));
            let mut keys = vec![];
            if !span {
                let key = |i: (ThreadId, CtxId, StmtId)| ((i.0, oracle.instance_key(icfg, i)), i);
                let mut keyed: Vec<_> = reps.iter().map(|&i| key(i)).collect();
                keyed.sort_unstable();
                keyed.dedup_by(|a, b| a.0 == b.0);
                (keys, reps) = keyed.into_iter().unzip();
            }
            let (region, next) = (rel.region_of(s), sigs.len());
            let id = *ids.entry((region, keys, span.then_some(s))).or_insert(next);
            if id == next {
                sigs.push(Signature { region, reps, span });
            }
            sig_of[s.index()] = id as u32;
        }
        let mut verdicts = Vec::with_capacity(sigs.len() * sigs.len());
        for s1 in &sigs {
            for s2 in &sigs {
                let par = s1
                    .region
                    .zip(s2.region)
                    .is_some_and(|(a, b)| rel.parallel_regions(a, b));
                // A statement outside every span never forms a non-interference
                // pair, so a pair with one is filtered only when no instance
                // pair is MHP at all — whatever the object.
                let mhp = |i1| s2.reps.iter().any(|&i2| oracle.mhp_instances(icfg, i1, i2));
                let no_mhp = || !s1.reps.iter().any(|&i1| mhp(i1));
                verdicts.push(par.then(|| lock.is_some() && !(s1.span && s2.span) && no_mhp()));
            }
        }
        ValueFlowPlan {
            icfg,
            oracle,
            lock,
            stores_of,
            accesses_of,
            objects,
            sig_of,
            sigs,
            verdicts,
        }
    }

    /// The work units: shared objects in ascending order.
    pub fn objects(&self) -> &[MemId] {
        &self.objects
    }

    /// Evaluates work unit `i`: the `i`-th object's signature pairs.
    /// Pure with respect to the plan — safe to run concurrently.
    pub fn object_flow(&self, i: usize) -> ObjectFlow {
        let o = self.objects[i];
        let sig = |s: StmtId| self.sig_of[s.index()] as usize;
        let stores = by_key(&self.stores_of[&o], sig);
        let accesses = by_key(&self.accesses_of[&o], sig);
        let access_runs: Vec<&[StmtId]> = accesses.chunk_by(|&a, &b| sig(a) == sig(b)).collect();
        let (mut out, mut rows) = (ObjectFlow::default(), Vec::new());
        for ss in stores.chunk_by(|&a, &b| sig(a) == sig(b)) {
            let (s, mut hits) = (sig(ss[0]), Vec::new());
            for (ai, aa) in access_runs.iter().enumerate() {
                let (a, n) = (sig(aa[0]), ss.len() * aa.len());
                // Every store is also an access of the object: the diagonal
                // holds its self-pairs, MHP candidates but not aliased pairs.
                out.stats.aliased_pairs += if s == a { n - ss.len() } else { n };
                let Some(mut filtered) = self.verdicts[s * self.sigs.len() + a] else {
                    continue;
                };
                if self.sigs[s].span && self.sigs[a].span {
                    // Definition 6 reads the object through the span
                    // head/tail sets: decide this object's pairs exactly.
                    let lock = self.lock.expect("span signatures need the lock analysis");
                    filtered = self.sigs[s].reps.iter().all(|&i1| {
                        self.sigs[a].reps.iter().all(|&i2| {
                            !self.oracle.mhp_instances(self.icfg, i1, i2)
                                || lock.non_interference(self.icfg, i1, i2, o)
                        })
                    });
                }
                out.stats.mhp_pairs += n;
                if filtered {
                    out.stats.lock_filtered += n;
                } else {
                    out.stats.edges += n;
                    hits.push(ai);
                }
            }
            if !hits.is_empty() {
                rows.push((hits, None, ss));
            }
        }
        out.classes = classes(o, rows, &access_runs);
        out
    }

    /// Folds per-object results — **in object order** — into the final
    /// value flow. Deterministic for any evaluation schedule: the caller
    /// passes `flows[i] = object_flow(i)`.
    pub fn merge(&self, flows: impl IntoIterator<Item = ObjectFlow>) -> ThreadValueFlow {
        let mut out = ThreadValueFlow::default();
        out.stats.shared_objects = self.objects.len();
        for flow in flows {
            out.stats.aliased_pairs += flow.stats.aliased_pairs;
            out.stats.mhp_pairs += flow.stats.mhp_pairs;
            out.stats.lock_filtered += flow.stats.lock_filtered;
            out.stats.edges += flow.stats.edges;
            out.edges.extend(flow.classes);
        }
        out
    }
}

/// The keyed statements, sorted by `(key, statement)` and deduplicated.
fn by_key<'s, K: Ord>(
    stmts: impl IntoIterator<Item = &'s StmtId>,
    key: impl Fn(StmtId) -> K,
) -> Vec<StmtId> {
    let mut out: Vec<StmtId> = stmts.into_iter().copied().collect();
    out.sort_by_key(|&s| (key(s), s));
    out.dedup();
    out
}

/// One object's classes from store rows `(access runs hit, access excluded,
/// stores)`. Stores whose rows name the same access set form one class:
/// the runs partition the accesses and an exclusion never empties a run, so
/// equal row keys are exactly equal access sets. Classes come out ordered
/// by access list.
fn classes(
    obj: MemId,
    mut rows: Vec<(Vec<usize>, Option<StmtId>, &[StmtId])>,
    runs: &[&[StmtId]],
) -> Vec<ThreadClass> {
    rows.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let mut out: Vec<ThreadClass> = rows
        .chunk_by(|a, b| (&a.0, a.1) == (&b.0, b.1))
        .map(|group| {
            let (hits, except, _) = &group[0];
            let mut stores: Vec<StmtId> = group.iter().flat_map(|r| r.2).copied().collect();
            let mut accesses: Vec<StmtId> = hits.iter().flat_map(|&ai| runs[ai]).copied().collect();
            accesses.retain(|&a| Some(a) != *except);
            stores.sort_unstable();
            accesses.sort_unstable();
            ThreadClass {
                obj,
                stores,
                accesses,
            }
        })
        .collect();
    out.sort_by(|a, b| a.accesses.cmp(&b.accesses));
    out
}

/// Per object: the stores that may write it and the loads/stores that may
/// access it. Only store/load statements participate in [THREAD-VF].
fn index_accesses(
    module: &Module,
    pre: &PreAnalysis,
) -> (HashMap<MemId, Vec<StmtId>>, HashMap<MemId, Vec<StmtId>>) {
    let mut stores_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    let mut accesses_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    for (sid, stmt) in module.stmts() {
        let (ptr, store) = match stmt.kind {
            StmtKind::Store { ptr, .. } => (ptr, true),
            StmtKind::Load { ptr, .. } => (ptr, false),
            _ => continue,
        };
        for o in pre.pt_var(ptr).iter() {
            if store {
                stores_of.entry(o).or_default().push(sid);
            }
            accesses_of.entry(o).or_default().push(sid);
        }
    }
    (stores_of, accesses_of)
}

/// Computes the thread-aware def-use edges.
///
/// * `oracle` supplies instance-level MHP facts for the lock filter (the
///   interleaving analysis, or the PCG baseline in the *No-Interleaving*
///   configuration);
/// * `rel` is the same backend factored into region form — every
///   statement-level MHP test here is one region lookup plus a bit test,
///   never a per-pair oracle probe;
/// * `lock` enables Definition 6 filtering (`None` in the *No-Lock*
///   configuration);
/// * `blind` disregards the aliasing condition (*No-Value-Flow*).
pub fn compute(
    module: &Module,
    icfg: &Icfg,
    pre: &PreAnalysis,
    oracle: &(dyn MhpOracle + Sync),
    rel: &MhpRelation,
    lock: Option<&LockAnalysis>,
    blind: bool,
) -> ThreadValueFlow {
    if blind {
        // Sharedness and aliasing are both disregarded in blind mode, so
        // the per-object plan does not apply.
        return compute_blind(module, pre, rel);
    }
    let plan = ValueFlowPlan::new(module, icfg, pre, oracle, rel, lock);
    plan.merge((0..plan.objects().len()).map(|i| plan.object_flow(i)))
}

/// The *No-Value-Flow* ablation: every MHP store/access pair gets edges
/// for all of the store's target objects, no aliasing or sharedness test.
fn compute_blind(module: &Module, pre: &PreAnalysis, rel: &MhpRelation) -> ThreadValueFlow {
    let (stores_of, accesses_of) = index_accesses(module, pre);
    let region = |s: StmtId| rel.region_of(s);
    let accesses = by_key(accesses_of.values().flatten(), region);
    let runs: Vec<&[StmtId]> = accesses.chunk_by(|&a, &b| region(a) == region(b)).collect();
    // A store pairs with every access in a region parallel to its own but
    // itself: its row excludes it, or drops its own run when that is just
    // the store. Every store is an access, so its own run exists.
    let (mut rows_of, mut out) = (HashMap::new(), ThreadValueFlow::default());
    for s in by_key(stores_of.values().flatten(), region) {
        let own = runs.partition_point(|run| region(run[0]) < region(s));
        let mut hits: Vec<usize> = (0..runs.len())
            .filter(|&ai| rel.mhp_stmt(s, runs[ai][0]))
            .collect();
        let mut except = hits.contains(&own).then_some(s);
        if except.is_some() && runs[own].len() == 1 {
            hits.retain(|&ai| ai != own);
            except = None;
        }
        let pairs: usize = hits.iter().map(|&ai| runs[ai].len()).sum();
        out.stats.mhp_pairs += pairs - usize::from(except.is_some());
        rows_of.insert(s, (hits, except));
    }
    let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
    objects.sort();
    for o in objects {
        let rows = stores_of[&o]
            .iter()
            .filter_map(|s| {
                let (hits, except) = rows_of.get(s)?;
                (!hits.is_empty()).then(|| (hits.clone(), *except, std::slice::from_ref(s)))
            })
            .collect();
        let classes = classes(o, rows, &runs);
        out.stats.edges += classes
            .iter()
            .map(|c| c.stores.len() * c.accesses.len())
            .sum::<usize>();
        out.edges.extend(classes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::Interleaving;
    use crate::lock::LockAnalysis;
    use crate::model::ThreadModel;
    use fsam_ir::parse::parse_module;

    struct World {
        m: Module,
        icfg: Icfg,
        pre: PreAnalysis,
        inter: Interleaving,
        rel: MhpRelation,
        lock: LockAnalysis,
    }

    fn analyze(src: &str) -> World {
        let m = parse_module(src).unwrap();
        fsam_ir::verify::verify_module(&m).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        let ctxs = crate::flow::precompute_contexts(&icfg, pre.call_graph(), &tm);
        let inter = Interleaving::compute(&m, &icfg, &pre, &tm, &ctxs);
        let rel = inter.export_facts().relation();
        let lock = LockAnalysis::compute(&m, &icfg, &pre, &tm, &ctxs);
        World {
            m,
            icfg,
            pre,
            inter,
            rel,
            lock,
        }
    }

    /// Whether some class carries the `store -> access` flow.
    fn has_edge(vf: &ThreadValueFlow, store: StmtId, access: StmtId) -> bool {
        vf.edges
            .iter()
            .any(|c| c.stores.contains(&store) && c.accesses.contains(&access))
    }

    fn nth_stmt(m: &Module, f: &str, pred: impl Fn(&StmtKind) -> bool, n: usize) -> StmtId {
        let fid = m.func_by_name(f).unwrap();
        m.stmts()
            .filter(|(_, s)| s.func == fid && pred(&s.kind))
            .nth(n)
            .unwrap()
            .0
    }

    /// Paper Figure 1(d): *x = r and c = *p don't alias — no edge.
    #[test]
    fn non_aliased_mhp_pair_gets_no_edge() {
        let w = analyze(
            r#"
            global xobj
            global pobj
            func foo() {
            entry:
              p2 = &pobj
              x = &xobj
              store p2, p2     // *p = q
              store x, x       // *x = r — different object
              ret
            }
            func main() {
            entry:
              p = &pobj
              t = fork foo()
              c = load p       // c = *p
              join t
              ret
            }
        "#,
        );
        let vf = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        let store_x = nth_stmt(&w.m, "foo", |k| matches!(k, StmtKind::Store { .. }), 1);
        let load = nth_stmt(&w.m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert!(
            !has_edge(&vf, store_x, load),
            "*x and *p don't alias: no thread-aware edge (Fig 1(d))"
        );
        let store_p = nth_stmt(&w.m, "foo", |k| matches!(k, StmtKind::Store { .. }), 0);
        assert!(
            has_edge(&vf, store_p, load),
            "*p in foo does interfere with c = *p"
        );
    }

    #[test]
    fn blind_mode_floods_edges() {
        let w = analyze(
            r#"
            global xobj
            global pobj
            func foo() {
            entry:
              x = &xobj
              store x, x
              ret
            }
            func main() {
            entry:
              p = &pobj
              t = fork foo()
              c = load p
              join t
              ret
            }
        "#,
        );
        let precise = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        let blind = compute(&w.m, &w.icfg, &w.pre, &w.inter, &w.rel, Some(&w.lock), true);
        assert!(
            blind.stats.edges > precise.stats.edges,
            "blind mode adds spurious edges"
        );
    }

    #[test]
    fn sequential_program_has_no_thread_edges() {
        let w = analyze(
            r#"
            global g
            func main() {
            entry:
              p = &g
              store p, p
              c = load p
              ret
            }
        "#,
        );
        let vf = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        assert!(vf.edges.is_empty());
        assert_eq!(vf.stats.mhp_pairs, 0);
    }

    /// The per-object plan must reproduce the sequential `compute` exactly
    /// — edges in the same order, identical stats — no matter in which
    /// order the object flows are *evaluated* (merge reorders by object).
    #[test]
    fn plan_merge_matches_sequential_compute_for_any_evaluation_order() {
        let w = analyze(
            r#"
            global a
            global b
            global lk
            func worker() {
            entry:
              p = &a
              q = &b
              l = &lk
              store p, q
              lock l
              store q, p
              unlock l
              c = load p
              d = load q
              ret
            }
            func main() {
            entry:
              t1 = fork worker()
              t2 = fork worker()
              p0 = &a
              e = load p0
              join t1
              join t2
              ret
            }
        "#,
        );
        let seq = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        let plan = ValueFlowPlan::new(&w.m, &w.icfg, &w.pre, &w.inter, &w.rel, Some(&w.lock));
        assert!(
            plan.objects().len() >= 2,
            "test program must exercise more than one work unit"
        );
        // Evaluate in reverse order (a worker pool evaluates in *any*
        // order), then merge in object order.
        let mut flows: Vec<ObjectFlow> = (0..plan.objects().len())
            .rev()
            .map(|i| plan.object_flow(i))
            .collect();
        flows.reverse();
        let merged = plan.merge(flows);
        assert_eq!(merged.stats, seq.stats);
        assert_eq!(
            merged.edges, seq.edges,
            "edge order is part of the contract"
        );
    }

    /// One store, two contexts of the main thread: before the fork the
    /// worker is not alive, after it the worker is. The signature must keep
    /// both instance keys; one representative per thread would pick either
    /// context and could wrongly lock-filter the pair.
    #[test]
    fn signatures_keep_every_instance_key() {
        let w = analyze(
            r#"
            global g
            func touch() {
            entry:
              p = &g
              store p, p
              ret
            }
            func worker() {
            entry:
              q = &g
              c = load q
              ret
            }
            func main() {
            entry:
              call touch()
              t = fork worker()
              call touch()
              join t
              ret
            }
        "#,
        );
        let vf = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        let store = nth_stmt(&w.m, "touch", |k| matches!(k, StmtKind::Store { .. }), 0);
        let load = nth_stmt(&w.m, "worker", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert_eq!(vf.stats.lock_filtered, 0, "{:?}", vf.stats);
        assert!(has_edge(&vf, store, load));
    }

    /// Paper Figure 1(e)/Figure 9: lock correlation removes spurious edges.
    #[test]
    fn lock_filter_reduces_edges() {
        let src = r#"
            global o
            global lk
            func a() {
            entry:
              p = &o
              l = &lk
              lock l
              store p, p     // intermediate
              store p, p     // tail
              unlock l
              ret
            }
            func b() {
            entry:
              q = &o
              l = &lk
              lock l
              c = load q
              unlock l
              ret
            }
            func main() {
            entry:
              t1 = fork a()
              t2 = fork b()
              join t1
              join t2
              ret
            }
        "#;
        let w = analyze(src);
        let with_lock = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        let without = compute(&w.m, &w.icfg, &w.pre, &w.inter, &w.rel, None, false);
        assert!(with_lock.stats.lock_filtered >= 1, "{:?}", with_lock.stats);
        assert!(with_lock.stats.edges < without.stats.edges);
        // The tail store -> head load edge must survive.
        let tail = nth_stmt(&w.m, "a", |k| matches!(k, StmtKind::Store { .. }), 1);
        let head = nth_stmt(&w.m, "b", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert!(has_edge(&with_lock, tail, head));
        // The intermediate store -> head edge is filtered.
        let mid = nth_stmt(&w.m, "a", |k| matches!(k, StmtKind::Store { .. }), 0);
        assert!(!has_edge(&with_lock, mid, head));
    }
}
