//! Per-layer attribution for the traced run.
//!
//! Two sources, both outside the program's own code:
//!
//! * the server's always-on STATS/METRICS counters, read before and
//!   after the traced TCP window;
//! * an in-process replay of the same requests (setup and warm-up
//!   included) through each layer's public functions, with spans
//!   recorded here around every call.
//!
//! The replay runs every request through five fresh copies of the
//! serving state, interleaved per request so all five see the same
//! cache history and the same machine conditions:
//!
//! 1. `server::respond` on an engine with the server's defaults;
//! 2. `Engine::submit_wait` on a second such engine;
//! 3. `dispatch::execute` on a bare cache;
//! 4. the engine's execute path spelled out as layer calls (cache key,
//!    cache get, dispatch decision, comb/index/query, bit-parallel,
//!    osed, cache insert), one span per call;
//! 5. copy 4 again with spans off, for the tracing overhead.
//!
//! Differences of matched calls give the layers that have no public
//! function of their own: handoff = submit_wait − execute and codec =
//! respond − submit_wait, each call's execute part being the service
//! time its own engine measured for that request; io = client latency −
//! respond, whose engine part comes from the server's STATS.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use slcs_engine::cache::{CachedIndex, PlainEntry};
use slcs_engine::{
    combing_choice, decide, execute, server, AlgoChoice, CacheKey, Engine, EngineConfig, IndexKind,
    KernelCache, Metrics, ServerConfig,
};
use slcs_semilocal::{
    auto_plan, iterative_combing, par_antidiag_combing_branchless_sched, EditDistances,
    SemiLocalKernel,
};

use crate::client::Counters;
use crate::load::LoadResult;
use crate::workload::{Op, Phase, Request, Stream, Workload};
use crate::Metric;

/// Timed requests the replay covers (after the untimed ones), sized so
/// the five copies take a few seconds.
fn replay_len(workload: Workload) -> u64 {
    match workload {
        Workload::CombCold => 200,
        Workload::QueryHot => 2000,
        Workload::DnaNear => 250,
    }
}

/// `trace.coverage` must lie within this factor of 1: the replayed layer
/// calls explain `dispatch::execute`, the call the engine times as its
/// service, up to the glue between them.
pub const COVERAGE_TOLERANCE: f64 = 1.25;

/// One recorded call.
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    muted: bool,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), muted: false }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`, nested
    /// under the innermost open span.
    fn span<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if self.muted {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span { req, name, parent, start_ns, end_ns: start_ns });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Each span's duration minus the part its children cover (children
    /// run inside their parent on one thread, so they never overlap).
    pub fn self_times(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                out[p] = out[p].saturating_sub(span.dur_ns());
            }
        }
        out
    }

    /// Chrome trace-event JSON of every span, self time in `args`.
    fn to_chrome_json(&self) -> String {
        let selfs = self.self_times();
        let events: Vec<String> = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, own)| {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"req\": {}, \"self_us\": {:.3}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    s.req,
                    *own as f64 / 1e3
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// The serving state one replay copy owns.
struct Copies {
    server_engine: Engine,
    engine: Engine,
    cache: KernelCache,
    metrics: Metrics,
    layered: KernelCache,
    untraced: KernelCache,
    threads: usize,
    server_config: ServerConfig,
}

impl Copies {
    fn new() -> Copies {
        let config = EngineConfig::default();
        Copies {
            server_engine: Engine::new(config.clone()),
            engine: Engine::new(config.clone()),
            cache: KernelCache::new(config.cache_capacity),
            metrics: Metrics::default(),
            layered: KernelCache::new(config.cache_capacity),
            untraced: KernelCache::new(config.cache_capacity),
            threads: config.threads_per_request,
            server_config: ServerConfig::default(),
        }
    }
}

fn index_kind(op: Op) -> IndexKind {
    match op {
        Op::Edit | Op::EditWindow(_) | Op::EditBounded(_) => IndexKind::Edit,
        Op::Lcs | Op::Windows(_) => IndexKind::Plain,
    }
}

/// The build `combing_choice` and `auto_plan` select, as the engine's
/// miss path runs it.
fn comb(t: &mut Tracer, id: u64, a: &[u8], b: &[u8], threads: usize) -> SemiLocalKernel {
    let plan = t.span(id, "dispatch.decide", |_| match combing_choice(a.len(), b.len(), threads) {
        AlgoChoice::GridHybridCombing { tasks } => Some(auto_plan(a.len(), b.len(), tasks)),
        _ => None,
    });
    t.span(id, "semilocal.comb", |_| match plan {
        Some((mode, grain)) => par_antidiag_combing_branchless_sched(a, b, mode, grain),
        None => iterative_combing(a, b),
    })
}

/// The best window as the engine reports it: highest score, first start.
fn best_window(scores: &[usize]) -> (usize, usize) {
    let top = scores.iter().copied().max().unwrap_or(0);
    (scores.iter().position(|&s| s == top).unwrap_or(0), top)
}

/// The engine's execute path for one request, one span per layer call.
/// Returns whether the request took the output-sensitive route.
fn layers(t: &mut Tracer, id: u64, req: &Request, cache: &KernelCache, threads: usize) -> bool {
    let (a, b) = (&req.a[..], &req.b[..]);
    let op = req.op.engine_op();
    let key = t.span(id, "cache.key", |_| CacheKey::new(index_kind(req.op), a, b));
    let hit = t.span(id, "cache.get", |_| cache.get(&key));
    match (req.op, hit) {
        (Op::Lcs, Some(CachedIndex::Plain(entry))) => {
            t.span(id, "semilocal.query", |_| black_box(entry.kernel().lcs()));
        }
        (Op::Lcs, _) => {
            let plan = t.span(id, "dispatch.decide", |_| decide(&op, a, b, threads));
            if plan.algo == AlgoChoice::BitParallel {
                t.span(id, "bitparallel.lcs", |_| black_box(slcs_bitpar::bit_lcs_alphabet(a, b)));
            } else {
                let kernel = comb(t, id, a, b, threads);
                t.span(id, "semilocal.query", |_| black_box(kernel.lcs()));
                let entry = CachedIndex::Plain(Arc::new(PlainEntry::new(kernel)));
                t.span(id, "cache.insert", |_| cache.insert(key, entry));
            }
        }
        (Op::Windows(w), hit) => {
            let entry = match hit {
                Some(CachedIndex::Plain(entry)) => entry,
                _ => {
                    let entry = Arc::new(PlainEntry::new(comb(t, id, a, b, threads)));
                    t.span(id, "cache.insert", |_| {
                        cache.insert(key, CachedIndex::Plain(entry.clone()))
                    });
                    // The first window query on an entry builds its index.
                    t.span(id, "semilocal.index", |_| {
                        black_box(entry.scores());
                    });
                    entry
                }
            };
            t.span(id, "semilocal.query", |_| {
                let scores = entry.scores().windows_linear(w);
                black_box(best_window(&scores));
                black_box(scores)
            });
        }
        (_, Some(CachedIndex::Edit(entry))) => {
            t.span(id, "semilocal.query", |_| match req.op {
                Op::EditWindow(w) => black_box((entry.global(), entry.best_window(w).2)),
                _ => black_box((entry.global(), 0)),
            });
        }
        (Op::EditBounded(k), _) => {
            t.span(id, "osed.edit", |_| black_box(slcs_osed::edit_distance_bounded(a, b, k)));
            return true;
        }
        (Op::Edit | Op::EditWindow(_), _) => {
            if req.op == Op::Edit {
                let plan = t.span(id, "dispatch.decide", |_| decide(&op, a, b, threads));
                if plan.algo == AlgoChoice::OutputSensitive {
                    t.span(id, "osed.edit", |_| {
                        black_box(if threads > 1 {
                            slcs_osed::par_edit_distance(a, b)
                        } else {
                            slcs_osed::edit_distance(a, b)
                        })
                    });
                    return true;
                }
            }
            let entry = Arc::new(t.span(id, "semilocal.edit_index", |_| EditDistances::new(a, b)));
            t.span(id, "cache.insert", |_| cache.insert(key, CachedIndex::Edit(entry.clone())));
            t.span(id, "semilocal.query", |_| match req.op {
                Op::EditWindow(w) => black_box((entry.global(), entry.best_window(w).2)),
                _ => black_box((entry.global(), 0)),
            });
        }
    }
    false
}

/// What one replayed request reports besides its spans.
struct Replayed {
    response: String,
    /// Service time the engine behind `server::respond` measured for it.
    respond_service_us: f64,
    /// Service time the engine behind `submit_wait` measured for it.
    submit_service_us: f64,
}

/// Replays one request through the five copies.
fn replay_one(t: &mut Tracer, c: &Copies, id: u64, req: &Request) -> Result<Replayed, String> {
    let line = req.line();
    // PANIC: request lines are built from ASCII only.
    let line = std::str::from_utf8(&line[..line.len() - 1]).expect("ASCII request line");
    let served_before = c.server_engine.stats().service_micros.sum;
    let response =
        t.span(id, "server.respond", |_| server::respond(line, &c.server_engine, &c.server_config));
    let respond_service_us = (c.server_engine.stats().service_micros.sum - served_before) as f64;
    let outcome = t
        .span(id, "engine.submit_wait", |_| c.engine.submit_wait(req.engine_request()))
        .map_err(|e| format!("in-process submit_wait failed: {e}"))?;
    let creq = req.engine_request();
    t.span(id, "dispatch.execute", |_| black_box(execute(&creq, &c.cache, &c.metrics, c.threads)));
    // The engine keys every submission before queueing it; that hash is
    // outside the worker's service time, so it is not under the root.
    t.span(id, "cache.key", |_| black_box(CacheKey::new(index_kind(req.op), &req.a, &req.b)));
    let osed = t.span(id, "replay.execute", |t| layers(t, id, req, &c.layered, c.threads));
    t.span(id, "replay.untraced", |t| {
        t.muted = true;
        layers(t, id, req, &c.untraced, c.threads);
        t.muted = false;
    });
    if osed {
        // The routed osed call builds its own LCP oracle; this probe
        // times that build alone, on the same pair.
        t.span(id, "osed.index", |_| black_box(slcs_osed::LcpOracle::build(&req.a, &req.b)));
    }
    Ok(Replayed { response, respond_service_us, submit_service_us: outcome.service_micros as f64 })
}

/// Accumulated span statistics by name, over a set of requests.
#[derive(Default)]
struct Sums {
    ns: HashMap<&'static str, u64>,
    calls: HashMap<&'static str, u64>,
    cells: HashMap<&'static str, u64>,
}

impl Sums {
    fn mean_us(&self, name: &str) -> f64 {
        let calls = self.calls.get(name).copied().unwrap_or(0);
        if calls == 0 {
            0.0
        } else {
            self.ns[name] as f64 / calls as f64 / 1e3
        }
    }

    fn per_request_us(&self, name: &str, requests: u64) -> f64 {
        self.ns.get(name).copied().unwrap_or(0) as f64 / requests.max(1) as f64 / 1e3
    }

    fn ns_per_cell(&self, name: &str) -> f64 {
        match self.cells.get(name).copied().unwrap_or(0) {
            0 => 0.0,
            cells => self.ns[name] as f64 / cells as f64,
        }
    }
}

/// Whether the server routed the timed window as the workload intends:
/// comb_cold all `grid_par` and no hits; query_hot all hits and no
/// evictions; dna_near EDIT to `edit_similar`, bounded EDIT to
/// `edit_bounded` and LCS to `small_alphabet`, one for one.
fn routes_as_designed(
    workload: Workload,
    timed: &LoadResult,
    before: &Counters,
    after: &Counters,
) -> bool {
    let d = |key: &str| after.delta(before, key);
    let sent = |op: fn(&Op) -> bool| timed.op_count(op) as f64;
    match workload {
        Workload::CombCold => d("dispatch.grid_par") == d("completed") && d("hits") == 0.0,
        Workload::QueryHot => {
            d("hits") == d("completed") && d("misses") == 0.0 && d("evictions") == 0.0
        }
        Workload::DnaNear => {
            d("dispatch.edit_similar") == sent(|op| *op == Op::Edit)
                && d("dispatch.edit_bounded") == sent(|op| matches!(op, Op::EditBounded(_)))
                && d("dispatch.small_alphabet") == sent(|op| *op == Op::Lcs)
        }
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub fn per_layer(
    workload: Workload,
    stream: &Stream,
    timed: &LoadResult,
    before: &Counters,
    after: &Counters,
    out: &std::path::Path,
) -> Result<Vec<Metric>, String> {
    // ---- the server's own counters over the TCP window ----
    let completed = after.delta(before, "completed").max(1.0);
    let per_req = |key: &str| after.delta(before, key) / completed;
    let dispatch_total: f64 = after
        .values
        .keys()
        .filter(|k| k.starts_with("dispatch."))
        .map(|k| after.delta(before, k))
        .sum();
    let intended: f64 = workload
        .intended_reasons()
        .iter()
        .map(|r| after.delta(before, &format!("dispatch.{r}")))
        .sum();
    let (hits, misses) = (after.delta(before, "hits"), after.delta(before, "misses"));
    let service_us = per_req("service_sum");

    // ---- the in-process replay ----
    let copies = Copies::new();
    let mut tracer = Tracer::new();
    let mut requests: Vec<(u64, Request)> = Vec::new();
    for phase in [Phase::Setup, Phase::Warmup] {
        for i in 0..stream.untimed_len(phase) {
            requests.push((requests.len() as u64, stream.request(phase, i)));
        }
    }
    let timed_base = requests.len() as u64;
    let timed_len = replay_len(workload).min(timed.latencies.len() as u64);
    for i in 0..timed_len {
        requests.push((timed_base + i, stream.request(Phase::Timed, i)));
    }
    let mut divergent = 0;
    let mut served: HashMap<u64, Replayed> = HashMap::new();
    for (id, req) in &requests {
        let replayed = replay_one(&mut tracer, &copies, *id, req)?;
        if timed.response(req.combo).is_some_and(|r| r != replayed.response) {
            divergent += 1;
        }
        served.insert(*id, replayed);
    }
    if divergent > 0 {
        return Err(format!("{divergent} replayed responses differ from the server's"));
    }
    let cells: HashMap<u64, (u64, u64)> =
        requests.iter().map(|(id, r)| (*id, (r.a.len() as u64, r.b.len() as u64))).collect();

    // Sums over every request (builds happen in setup for query_hot)
    // and over the timed ones (per-request means).
    let selfs = tracer.self_times();
    let (mut all, mut timed_sums) = (Sums::default(), Sums::default());
    let mut respond_ns: HashMap<u64, u64> = HashMap::new();
    let mut submit_ns: HashMap<u64, u64> = HashMap::new();
    let mut execute_ns: HashMap<u64, u64> = HashMap::new();
    let mut layered_ns = 0u64;
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    for (span, own) in tracer.spans.iter().zip(&selfs) {
        let (m, n) = cells[&span.req];
        let area = match span.name {
            "semilocal.edit_index" => 4 * m * n,
            _ => m * n,
        };
        let is_timed = span.req >= timed_base;
        for sums in [Some(&mut all), is_timed.then_some(&mut timed_sums)].into_iter().flatten() {
            *sums.ns.entry(span.name).or_default() += span.dur_ns();
            *sums.calls.entry(span.name).or_default() += 1;
            *sums.cells.entry(span.name).or_default() += area;
        }
        if !is_timed {
            continue;
        }
        let matched = match span.name {
            "server.respond" => Some(&mut respond_ns),
            "engine.submit_wait" => Some(&mut submit_ns),
            "dispatch.execute" => Some(&mut execute_ns),
            "replay.execute" => {
                traced_ns += span.dur_ns();
                None
            }
            "replay.untraced" => {
                untraced_ns += span.dur_ns();
                None
            }
            _ => None,
        };
        if let Some(map) = matched {
            map.insert(span.req, span.dur_ns());
        }
        // Layer time under the replayed execute path: self times of the
        // root's descendants (the root's own self time is glue).
        if let Some(p) = span.parent {
            if tracer.spans[p].name == "replay.execute" {
                layered_ns += own;
            }
        }
    }
    let n_timed = timed_len.max(1);
    // Each copy's time beyond the service its own engine measured for
    // the same request; subtracting within one call keeps the noise of
    // two separate multi-millisecond computations out of the result.
    let mean_over = |durations: &HashMap<u64, u64>, service: fn(&Replayed) -> f64| {
        durations.iter().map(|(id, ns)| *ns as f64 / 1e3 - service(&served[id])).sum::<f64>()
            / durations.len().max(1) as f64
    };
    let respond_extra_us = mean_over(&respond_ns, |r| r.respond_service_us);
    let handoff_us = mean_over(&submit_ns, |r| r.submit_service_us);
    let codec_us = respond_extra_us - handoff_us;
    // io = client latency − respond, with respond's engine part taken
    // from the server's own STATS over the same window (wait + service).
    let client_us = timed.latencies.iter().map(|&(_, d)| d.as_secs_f64()).sum::<f64>() * 1e6
        / timed.latencies.len().max(1) as f64;
    let io_us = client_us - per_req("wait_sum") - service_us - codec_us - handoff_us;
    // The layer calls against `dispatch::execute` on the same requests,
    // on the same thread: execute is what the engine times as service.
    let execute_us = execute_ns.values().sum::<u64>() as f64 / 1e3 / n_timed as f64;
    let coverage = layered_ns as f64 / n_timed as f64 / 1e3 / execute_us;
    let overhead_pct = (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0) * 100.0;

    std::fs::create_dir_all(out)
        .and_then(|_| {
            std::fs::write(
                out.join(format!("spans-{}-seed{}.json", workload.name(), stream.seed)),
                tracer.to_chrome_json(),
            )
        })
        .map_err(|e| format!("cannot write the span file: {e}"))?;

    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("server.io_us", io_us, "us"),
        metric("server.codec_us", codec_us, "us"),
        metric("engine.handoff_us", handoff_us, "us"),
        metric("engine.wait_us", per_req("wait_sum"), "us"),
        metric("engine.service_us", service_us, "us"),
        metric("engine.coalesced_share", per_req("coalesced"), "ratio"),
        metric("dispatch.decide_us", timed_sums.per_request_us("dispatch.decide", n_timed), "us"),
        metric("dispatch.intended_share", intended / dispatch_total.max(1.0), "ratio"),
        metric("cache.key_us", timed_sums.per_request_us("cache.key", n_timed), "us"),
        metric("cache.get_us", timed_sums.per_request_us("cache.get", n_timed), "us"),
        metric(
            "cache.hit_ratio",
            if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
            "ratio",
        ),
        metric("cache.evictions_per_req", per_req("evictions"), "count"),
        metric("semilocal.comb_ns_per_cell", all.ns_per_cell("semilocal.comb"), "ns/cell"),
        metric("semilocal.index_us", all.mean_us("semilocal.index"), "us"),
        metric("semilocal.query_us", timed_sums.mean_us("semilocal.query"), "us"),
        metric(
            "semilocal.edit_index_ns_per_cell",
            all.ns_per_cell("semilocal.edit_index"),
            "ns/cell",
        ),
        metric("bitparallel.lcs_ns_per_cell", all.ns_per_cell("bitparallel.lcs"), "ns/cell"),
        metric("osed.index_us", all.mean_us("osed.index"), "us"),
        metric("osed.edit_us", timed_sums.mean_us("osed.edit"), "us"),
        metric("rayon.jobs_per_req", per_req("slcs_pool_jobs_executed_total"), "count"),
        metric("rayon.steals_per_req", per_req("slcs_pool_steals_total"), "count"),
        metric("rayon.parks_per_req", per_req("slcs_pool_parks_total"), "count"),
        metric("rayon.barrier_wait_us_per_req", per_req("pool_ns.barrier") / 1e3, "us"),
        metric("alloc.allocs_per_req", per_req("allocs"), "count"),
        metric("alloc.peak_live_mb", after.get("peak_live_bytes") / (1 << 20) as f64, "MiB"),
        metric("trace.coverage", coverage, "ratio"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ];
    println!(
        "replayed {} requests in-process ({} timed): layer sum {:.1} us, dispatch::execute \
         {:.1} us, server service {:.1} us",
        requests.len(),
        timed_len,
        layered_ns as f64 / n_timed as f64 / 1e3,
        execute_us,
        service_us
    );
    println!("routes as designed: {}", routes_as_designed(workload, timed, before, after));
    if !(1.0 / COVERAGE_TOLERANCE..=COVERAGE_TOLERANCE).contains(&coverage) {
        return Err(format!(
            "trace.coverage {coverage:.3} is outside [1/{COVERAGE_TOLERANCE}, {COVERAGE_TOLERANCE}]: \
             the layers do not explain the engine's service time"
        ));
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span(1, "root", |t| {
            t.span(1, "child", |t| {
                t.span(1, "grandchild", |_| std::thread::sleep(std::time::Duration::from_millis(2)))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let selfs = t.self_times();
        let dur: Vec<u64> = t.spans.iter().map(Span::dur_ns).collect();
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(selfs[0] + selfs[1] + selfs[2], dur[0]);
        assert!(selfs[0] >= 1_000_000 && selfs[2] >= 2_000_000);
        assert!(selfs[1] < dur[1]);
    }

    #[test]
    fn muted_spans_are_not_recorded() {
        let mut t = Tracer::new();
        t.muted = true;
        assert_eq!(t.span(0, "x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn layered_path_answers_like_the_engine() {
        // Every route the workloads take, through the layer calls and
        // through `dispatch::execute`, on small inputs.
        let cache = KernelCache::new(16);
        let (a, b): (Arc<[u8]>, Arc<[u8]>) =
            (Arc::from(&b"ACGTACGTTGCA"[..]), Arc::from(&b"ACGTTCGTTGCA"[..]));
        let mut t = Tracer::new();
        for (i, op) in
            [Op::Lcs, Op::Windows(5), Op::Lcs, Op::EditWindow(4), Op::Edit, Op::EditBounded(2)]
                .into_iter()
                .enumerate()
        {
            let req = Request { op, a: a.clone(), b: b.clone(), combo: 0 };
            layers(&mut t, i as u64, &req, &cache, 2);
        }
        let names: std::collections::HashSet<&str> = t.spans.iter().map(|s| s.name).collect();
        for name in [
            "cache.key",
            "cache.get",
            "dispatch.decide",
            "bitparallel.lcs",
            "semilocal.comb",
            "semilocal.index",
            "semilocal.query",
            "semilocal.edit_index",
            "cache.insert",
        ] {
            assert!(names.contains(name), "no {name} span");
        }
    }
}
