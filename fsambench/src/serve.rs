//! The `serve` workload: a seeded query stream with an independent answer
//! check, served by an in-process `fsam-server` over loopback.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fsam::Fsam;
use fsam_ir::rng::SmallRng;
use fsam_ir::{Module, StmtId, VarId};
use fsam_pts::MemId;
use fsam_query::{Answer, Query};
use fsam_server::{Client, Server, ServerConfig, ServerHandle, ServerState};

use crate::measure::{process_cpu, thread_cpu, threads_named};

/// Queries per `query_many` batch: the default `--batch` of the
/// repository's server load generator (`fsam-bench --bin server`), at
/// which `BENCH_server.json` was recorded.
pub const BATCH: usize = 512;
/// Size of the hot set most queries repeat: eight batches, the size of
/// the working set that load generator replays (`batch * 8`).
pub const HOT_SET: usize = 8 * BATCH;
/// Probability that a query is drawn from the hot set; the rest are a
/// uniform cold tail over the whole program. An assumption, not a
/// recorded traffic mix: README.md, "Serve traffic", gives the reason,
/// and every run prints the alias-cache hit ratio it produced.
pub const HOT_SHARE: f64 = 0.9;
/// The control connection's schedule: one reload per this many batches
/// on connection 1. Counted in batches, not seconds, so that every run
/// does the same work per batch however fast the host lets it go. Also an
/// assumption; README.md, "Serve traffic", gives the reason.
pub const RELOAD_EVERY: u64 = 400;

/// Answers queries directly from an [`Fsam`] result — `pt_var`, set
/// intersection, a reverse scan for `AliasesOf`, `mhp_refined` — without
/// the query engine, so the served answers have an independent check.
pub struct Oracle {
    fsam: Fsam,
    /// Variables holding each object, ascending, from one scan of every
    /// variable's points-to set.
    holders: Vec<Vec<VarId>>,
    /// Variables with a non-empty points-to set.
    vars: Vec<VarId>,
    /// Objects some variable points to.
    objs: Vec<MemId>,
    /// Statements inside an MHP region.
    stmts: Vec<StmtId>,
}

impl Oracle {
    /// Indexes `fsam`'s result for `module`.
    pub fn new(module: &Module, fsam: Fsam) -> Oracle {
        let mut holders: Vec<Vec<VarId>> = Vec::new();
        let mut vars = Vec::new();
        for v in module.var_ids() {
            let pts = fsam.result.pt_var(v);
            if !pts.is_empty() {
                vars.push(v);
            }
            for m in pts.iter() {
                if holders.len() <= m.index() {
                    holders.resize(m.index() + 1, Vec::new());
                }
                holders[m.index()].push(v);
            }
        }
        let objs = (0..holders.len())
            .filter(|&i| !holders[i].is_empty())
            .map(|i| MemId::new(i as u32))
            .collect();
        let stmts = module
            .stmt_ids()
            .filter(|&s| fsam.mhp_rel.region_of(s).is_some())
            .collect();
        Oracle {
            fsam,
            holders,
            vars,
            objs,
            stmts,
        }
    }

    /// The analysis result the oracle answers from.
    pub fn fsam(&self) -> &Fsam {
        &self.fsam
    }

    /// The expected answer to `q`.
    pub fn answer(&self, q: Query) -> Answer {
        let pt = |v: VarId| self.fsam.result.pt_var(v);
        match q {
            Query::PointsTo(v) => Answer::Objects(pt(v).iter().collect()),
            Query::MayAlias(p, q) => Answer::Bool(!pt(p).intersection(pt(q)).is_empty()),
            Query::AliasesOf(o) => {
                Answer::Vars(self.holders.get(o.index()).cloned().unwrap_or_default())
            }
            Query::Mhp(a, b) => Answer::Bool(self.fsam.mhp_refined(a, b)),
        }
    }

    /// A uniformly drawn query of a uniformly drawn kind.
    fn draw(&self, rng: &mut SmallRng) -> Query {
        let var = |rng: &mut SmallRng| pick(rng, &self.vars, VarId::new(0));
        let stmt = |rng: &mut SmallRng| pick(rng, &self.stmts, StmtId::new(0));
        match rng.gen_range(0u32..4) {
            0 => Query::PointsTo(var(rng)),
            1 => Query::MayAlias(var(rng), var(rng)),
            2 => Query::AliasesOf(pick(rng, &self.objs, MemId::new(0))),
            _ => Query::Mhp(stmt(rng), stmt(rng)),
        }
    }
}

fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T], empty: T) -> T {
    if xs.is_empty() {
        empty
    } else {
        xs[rng.gen_range(0..xs.len())]
    }
}

/// The seeded query stream: a hot set drawn once, then batches mixing hot
/// repeats with a fresh cold tail. Expected answers ride along.
pub struct Stream {
    rng: SmallRng,
    hot: Vec<(Query, Answer)>,
}

impl Stream {
    /// Draws the hot set from `seed`.
    pub fn new(seed: u64, oracle: &Oracle) -> Stream {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_5EED_5EED_5EED);
        let hot = (0..HOT_SET)
            .map(|_| {
                let q = oracle.draw(&mut rng);
                (q, oracle.answer(q))
            })
            .collect();
        Stream { rng, hot }
    }

    /// The hot set.
    pub fn hot(&self) -> &[(Query, Answer)] {
        &self.hot
    }

    /// Fills `queries` and `expected` with the next `n` queries.
    pub fn next_batch(
        &mut self,
        oracle: &Oracle,
        n: usize,
        queries: &mut Vec<Query>,
        expected: &mut Vec<Answer>,
    ) {
        queries.clear();
        expected.clear();
        for _ in 0..n {
            if self.rng.gen_bool(HOT_SHARE) {
                let (q, a) = &self.hot[self.rng.gen_range(0..self.hot.len())];
                queries.push(*q);
                expected.push(a.clone());
            } else {
                let q = oracle.draw(&mut self.rng);
                queries.push(q);
                expected.push(oracle.answer(q));
            }
        }
    }
}

/// Describes the first answer that differs from the expected one.
pub fn first_mismatch(queries: &[Query], got: &[Answer], want: &[Answer]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} answers for {} queries", got.len(), want.len()));
    }
    queries
        .iter()
        .zip(got.iter().zip(want))
        .find(|(_, (g, w))| g != w)
        .map(|(q, (g, w))| format!("{q:?}: served {}, expected {}", clip(g), clip(w)))
}

/// An answer's debug form, cut to a readable length.
fn clip(a: &Answer) -> String {
    let s = format!("{a:?}");
    match s.char_indices().nth(120) {
        Some((i, _)) => format!("{}…", &s[..i]),
        None => s,
    }
}

/// A running server with the snapshot it serves.
pub struct Served {
    /// The daemon.
    pub handle: ServerHandle,
    /// The serialized snapshot (also what every reload sends).
    pub bytes: Vec<u8>,
    /// `(vars, objects)` a reload of `bytes` must report.
    pub tables: (u32, u32),
}

impl Served {
    /// Serializes `fsam`'s snapshot and spawns a daemon on a loopback
    /// ephemeral port serving the decoded bytes, as a reload would.
    pub fn spawn(module: &Module, fsam: &Fsam) -> Result<Served, String> {
        let bytes = fsam_query::AnalysisDb::capture(module, fsam).to_bytes();
        let state = ServerState::from_snapshot_bytes(&bytes).map_err(|e| format!("{e:?}"))?;
        let handle = Server::spawn_with(state, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let tables = (
            module.var_count() as u32,
            fsam.pre.objects().mem_ids().count() as u32,
        );
        Ok(Served {
            handle,
            bytes,
            tables,
        })
    }

    /// Stops the daemon and waits for its accept loop to end.
    pub fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Sends the hot set once and checks every answer (the warm-up).
pub fn warm(served: &Served, stream: &Stream) -> Result<(), String> {
    let mut client = Client::connect(served.handle.addr()).map_err(|e| format!("{e:?}"))?;
    for chunk in stream.hot().chunks(BATCH) {
        let queries: Vec<Query> = chunk.iter().map(|(q, _)| *q).collect();
        let want: Vec<Answer> = chunk.iter().map(|(_, a)| a.clone()).collect();
        let got = client.query_many(&queries).map_err(|e| format!("{e:?}"))?;
        if let Some(m) = first_mismatch(&queries, &got, &want) {
            return Err(format!("warm-up: {m}"));
        }
    }
    Ok(())
}

/// The name `fsam-server` gives each connection's handler thread; the
/// control connection's handler is found by it to read its CPU time.
const CONN_THREAD: &str = "fsam-server-conn";

/// What a closed-loop load window measured.
#[derive(Debug, Default)]
pub struct Load {
    /// Batches sent.
    pub batches: u64,
    /// Batches whose answers mismatched or errored.
    pub bad_batches: u64,
    /// Queries answered correctly.
    pub queries: u64,
    /// Client-observed round trip per batch, µs.
    pub rtt_us: Vec<f64>,
    /// Process CPU time (client and server threads) per round trip, µs.
    pub cpu_us: Vec<f64>,
    /// Operations sent on the control connection: reloads and `stats`
    /// reads.
    pub control_ops: u64,
    /// Control operations that errored, or reloads that reported other
    /// table sizes.
    pub bad_control_ops: u64,
    /// Round trip of each reload, ms.
    pub reload_ms: Vec<f64>,
    /// CPU time of the server thread handling each reload, ms. Empty when
    /// that thread's CPU clock cannot be read.
    pub reload_cpu_ms: Vec<f64>,
    /// Alias-cache `(hits, misses)` the window's queries caused, summed
    /// over every engine the window saw (each reload starts a new one);
    /// `None` when the server's `stats` could not be read.
    pub alias: Option<(u64, u64)>,
    /// Measured wall time.
    pub wall: Duration,
    /// The first failure seen, for the log.
    pub first_failure: Option<String>,
}

impl Load {
    /// The served stream's alias-cache hit ratio.
    pub fn alias_hit_ratio(&self) -> Option<f64> {
        self.alias
            .filter(|&(h, m)| h + m > 0)
            .map(|(h, m)| h as f64 / (h + m) as f64)
    }

    /// Counts one failed control operation.
    fn fail(&mut self, failure: String) {
        self.bad_control_ops += 1;
        self.first_failure.get_or_insert(failure);
    }
}

/// The current engine's alias-cache `(hits, misses)`, from `stats`.
fn alias_counts(client: &mut Client) -> Result<(u64, u64), String> {
    let stats = client.stats().map_err(|e| format!("stats: {e:?}"))?;
    let get = |key: &str| {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("the server's stats carry no {key}"))
    };
    Ok((get("alias_hits")?, get("alias_misses")?))
}

/// The control connection.
struct Control {
    client: Client,
    /// The server thread that handles it: the one connection-handler
    /// thread that appeared with it, or `None` when it cannot be told
    /// apart.
    tid: Option<u32>,
    /// The alias-cache counts before the window.
    base: (u64, u64),
}

impl Control {
    fn open(addr: std::net::SocketAddr) -> Result<Control, String> {
        let before = threads_named(CONN_THREAD);
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e:?}"))?;
        let base = alias_counts(&mut client)?;
        let new: Vec<u32> = threads_named(CONN_THREAD)
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect();
        let tid = match new[..] {
            [tid] => Some(tid),
            _ => None,
        };
        Ok(Control { client, tid, base })
    }
}

/// Runs the closed loop for `window`: connection 1 sends `stream`'s
/// batches back to back, checking every answer; connection 2 (when
/// `reload_every` is set) sends a reload of the same snapshot bytes after
/// every `reload_every` batches, and reads the alias-cache counters of
/// each engine just before replacing it. Both connections are closed
/// before this returns.
pub fn load(
    served: &Served,
    oracle: &Oracle,
    stream: &mut Stream,
    window: Duration,
    reload_every: Option<u64>,
) -> Load {
    let stop = AtomicBool::new(false);
    let sent = AtomicU64::new(0);
    let addr = served.handle.addr();
    // Opened before connection 1 so its server thread is the only new one.
    let control = Control::open(addr);
    let t0 = Instant::now();
    let (mut out, control) = std::thread::scope(|s| {
        let (stop, sent) = (&stop, &sent);
        let control = s.spawn(move || {
            let mut out = Load::default();
            let mut control = match control {
                Ok(c) => c,
                Err(e) => {
                    out.control_ops = 1;
                    out.fail(e);
                    return (out, None);
                }
            };
            // The read of `base` was one control op.
            out.control_ops = 1;
            // Counts of engines already replaced; the window's share of
            // the first engine excludes `base`, its warm-up.
            let mut alias = Some((0u64, 0u64));
            let Some(every) = reload_every else {
                return (out, Some((control, alias)));
            };
            let mut due = every;
            loop {
                while sent.load(Ordering::Relaxed) < due && !stop.load(Ordering::Relaxed) {
                    std::thread::park();
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                out.control_ops += 2;
                match alias_counts(&mut control.client) {
                    Ok((h, m)) => alias = alias.map(|(ah, am)| (ah + h, am + m)),
                    Err(e) => {
                        alias = None;
                        out.fail(e);
                    }
                }
                let tid = control.tid;
                let (cpu, t) = (tid.and_then(thread_cpu), Instant::now());
                let reply = control.client.reload(&served.bytes);
                out.reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match reply {
                    Ok(t) if t == served.tables => {
                        if let (Some(c0), Some(c1)) = (cpu, tid.and_then(thread_cpu)) {
                            out.reload_cpu_ms.push((c1 - c0).as_secs_f64() * 1e3);
                        }
                    }
                    Ok(t) => out.fail(format!(
                        "reload reported {t:?}, expected {:?}",
                        served.tables
                    )),
                    Err(e) => out.fail(format!("reload: {e:?}")),
                }
                due += every;
            }
            (out, Some((control, alias)))
        });
        let reloader = control.thread().clone();
        let queries = s.spawn(move || {
            let mut out = Load::default();
            let mut client = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    out.batches = 1;
                    out.bad_batches = 1;
                    out.first_failure = Some(format!("connect: {e:?}"));
                    return out;
                }
            };
            let (mut qs, mut want) = (Vec::new(), Vec::new());
            while !stop.load(Ordering::Relaxed) {
                stream.next_batch(oracle, BATCH, &mut qs, &mut want);
                let (sent_at, cpu) = (Instant::now(), process_cpu());
                let reply = client.query_many(&qs);
                out.cpu_us.push((process_cpu() - cpu).as_secs_f64() * 1e6);
                out.rtt_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
                out.batches += 1;
                sent.store(out.batches, Ordering::Relaxed);
                if reload_every.is_some_and(|k| out.batches % k == 0) {
                    reloader.unpark();
                }
                let failure = match reply {
                    Ok(got) => first_mismatch(&qs, &got, &want),
                    Err(e) => Some(format!("query_many: {e:?}")),
                };
                match failure {
                    None => out.queries += qs.len() as u64,
                    Some(f) => {
                        out.bad_batches += 1;
                        out.first_failure.get_or_insert(f);
                    }
                }
            }
            out
        });
        std::thread::sleep(window.saturating_sub(t0.elapsed()));
        stop.store(true, Ordering::Relaxed);
        let q = queries.join().expect("query thread panicked");
        control.thread().unpark();
        let c = control.join().expect("control thread panicked");
        (q, c)
    });
    out.wall = t0.elapsed();
    let (mut c, control) = control;
    // The engine serving at the end holds the rest of the window's counts.
    if let Some((mut control, alias)) = control {
        c.control_ops += 1;
        let (b0, b1) = control.base;
        match alias_counts(&mut control.client) {
            Ok((h, m)) => {
                out.alias =
                    alias.map(|(ah, am)| ((ah + h).saturating_sub(b0), (am + m).saturating_sub(b1)))
            }
            Err(e) => c.fail(e),
        }
    }
    out.control_ops = c.control_ops;
    out.bad_control_ops = c.bad_control_ops;
    out.reload_ms = c.reload_ms;
    out.reload_cpu_ms = c.reload_cpu_ms;
    if out.first_failure.is_none() {
        out.first_failure = c.first_failure;
    }
    out
}

/// The server's own lifetime batch-latency p50, µs, from its `stats` op.
pub fn service_us_p50(served: &Served) -> Result<f64, String> {
    let mut client = Client::connect(served.handle.addr()).map_err(|e| format!("{e:?}"))?;
    let stats = client.stats().map_err(|e| format!("{e:?}"))?;
    stats
        .iter()
        .find(|(k, _)| k == "p50_us")
        .map(|&(_, v)| v as f64)
        .ok_or_else(|| "the server's stats carry no p50_us".to_string())
}
