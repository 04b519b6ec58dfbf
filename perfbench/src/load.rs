//! The closed-loop load generator: each connection sends its next
//! request only after the previous response has arrived.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::check;
use crate::client::Conn;
use crate::provenance;
use crate::workload::{Op, Phase, Request, Stream};

/// The intervals a timed loop is cut into: its throughput and host steal
/// are taken per bucket, so that a burst of steal marks a few buckets
/// rather than the whole loop.
pub const BUCKET: Duration = Duration::from_millis(250);

/// When the loop stops taking new requests.
#[derive(Clone, Copy)]
pub enum Until {
    /// Indices up to `n` (exclusive), split over the connections.
    Count(u64),
    /// Every request started before the deadline (measured from the
    /// start of the loop) runs to completion.
    Elapsed(Duration),
}

/// The distinct responses one combo received, with how often each.
struct Answers {
    req: Request,
    seen: Vec<(String, u64)>,
}

/// Everything a load phase observed.
#[derive(Default)]
pub struct LoadResult {
    pub attempted: u64,
    /// Requests answered `BUSY` or `ERR`, or lost to a dropped
    /// connection or a timeout.
    pub transport_failed: u64,
    /// Requests whose answer failed its check (filled by [`Self::check`]).
    pub wrong: u64,
    /// (completion time from the start of its loop, client latency) of
    /// every answered request, in completion order within one loop.
    pub latencies: Vec<(Duration, Duration)>,
    /// The host's steal share in each whole [`BUCKET`] of an
    /// [`Until::Elapsed`] loop (empty for [`Until::Count`]).
    pub bucket_steal: Vec<f64>,
    /// From the start of the loop to the last response.
    pub window: Duration,
    pub failure_notes: Vec<String>,
    answers: Vec<Answers>,
    /// Requests sent, by operation.
    ops: Vec<(Op, u64)>,
}

impl LoadResult {
    pub fn failed(&self) -> u64 {
        self.transport_failed + self.wrong
    }

    pub fn correct(&self) -> u64 {
        self.attempted - self.failed()
    }

    /// Checks every distinct response not in `verified` (outside any
    /// timed window), counts the requests that received a wrong one and
    /// adds the right ones to `verified`.
    pub fn check(&mut self, threads: usize, verified: &mut HashSet<(u64, String)>) {
        let mut items = Vec::new();
        let mut counts = Vec::new();
        for a in &self.answers {
            for (resp, n) in &a.seen {
                if !verified.contains(&(a.req.combo, resp.clone())) {
                    items.push((a.req.clone(), resp.clone()));
                    counts.push(*n);
                }
            }
        }
        let failures = check::check_all(&items, threads);
        for &(i, ref why) in &failures {
            self.wrong += counts[i];
            if self.failure_notes.len() < 8 {
                self.failure_notes.push(format!("wrong answer to {:?}: {why}", items[i].0.op));
            }
        }
        let wrong: HashSet<usize> = failures.into_iter().map(|(i, _)| i).collect();
        for (i, (req, resp)) in items.into_iter().enumerate() {
            if !wrong.contains(&i) {
                verified.insert((req.combo, resp));
            }
        }
    }

    /// Requests sent whose operation satisfies `pick`.
    pub fn op_count(&self, pick: impl Fn(&Op) -> bool) -> u64 {
        self.ops.iter().filter(|(op, _)| pick(op)).map(|(_, n)| n).sum()
    }

    /// Adds another load phase's observations to this one; the windows
    /// add up.
    pub fn absorb(&mut self, other: LoadResult) {
        self.attempted += other.attempted;
        self.transport_failed += other.transport_failed;
        self.wrong += other.wrong;
        self.latencies.extend(other.latencies);
        self.window += other.window;
        self.failure_notes.extend(other.failure_notes);
        for (op, n) in other.ops {
            note_op(&mut self.ops, op, n);
        }
        for answers in other.answers {
            match self.answers.iter_mut().find(|a| a.req.combo == answers.req.combo) {
                Some(mine) => {
                    for (resp, n) in answers.seen {
                        note_answer(&mut mine.seen, resp, n);
                    }
                }
                None => self.answers.push(answers),
            }
        }
    }

    /// The response `combo` received, if all its requests got the same.
    pub fn response(&self, combo: u64) -> Option<&str> {
        match &self.answers.iter().find(|a| a.req.combo == combo)?.seen[..] {
            [(only, _)] => Some(only),
            _ => None,
        }
    }

    /// The first response received, with its request (for the planted
    /// self-check).
    pub fn first_answer(&self) -> Option<(Request, String)> {
        let a = self.answers.first()?;
        Some((a.req.clone(), a.seen.first()?.0.clone()))
    }
}

/// Per-connection results, merged after the loop.
#[derive(Default)]
struct ConnResult {
    attempted: u64,
    failed: u64,
    latencies: Vec<(Duration, Duration)>,
    answers: Vec<(u64, Answers)>,
    last_end: Option<Instant>,
    notes: Vec<String>,
    ops: Vec<(Op, u64)>,
}

/// Runs `phase` of `stream` against `addr` on `connections` closed
/// loops, from request index `first` on.
pub fn drive(
    addr: SocketAddr,
    stream: &Stream,
    phase: Phase,
    first: u64,
    until: Until,
    connections: usize,
) -> Result<LoadResult, String> {
    let next = AtomicU64::new(first);
    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections {
        conns.push(Conn::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?);
    }
    let start = Instant::now();
    let (results, bucket_steal) = std::thread::scope(|scope| {
        let sampler = match until {
            Until::Elapsed(window) => Some(scope.spawn(move || sample_steal(start, window))),
            Until::Count(_) => None,
        };
        let handles: Vec<_> = conns
            .into_iter()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || one_connection(conn, addr, stream, phase, until, start, next))
            })
            .collect();
        // PANIC: these threads only panic on a bug in this benchmark.
        let results: Vec<ConnResult> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (results, sampler.map(|h| h.join().expect("steal sampler panicked")).unwrap_or_default())
    });
    let mut out = LoadResult { bucket_steal, ..LoadResult::default() };
    let mut by_combo: std::collections::HashMap<u64, usize> = Default::default();
    let mut last_end = start;
    for r in results {
        out.attempted += r.attempted;
        out.transport_failed += r.failed;
        out.latencies.extend(r.latencies);
        out.failure_notes.extend(r.notes);
        for (op, n) in r.ops {
            note_op(&mut out.ops, op, n);
        }
        last_end = last_end.max(r.last_end.unwrap_or(start));
        for (combo, answers) in r.answers {
            match by_combo.get(&combo) {
                Some(&slot) => {
                    for (resp, n) in answers.seen {
                        note_answer(&mut out.answers[slot].seen, resp, n);
                    }
                }
                None => {
                    by_combo.insert(combo, out.answers.len());
                    out.answers.push(answers);
                }
            }
        }
    }
    out.latencies.sort_unstable_by_key(|&(t, _)| t);
    out.window = last_end - start;
    Ok(out)
}

fn note_op(ops: &mut Vec<(Op, u64)>, op: Op, n: u64) {
    match ops.iter_mut().find(|(o, _)| *o == op) {
        Some((_, count)) => *count += n,
        None => ops.push((op, n)),
    }
}

fn note_answer(seen: &mut Vec<(String, u64)>, resp: String, n: u64) {
    match seen.iter_mut().find(|(s, _)| *s == resp) {
        Some((_, count)) => *count += n,
        None => seen.push((resp, n)),
    }
}

/// Reads the host's steal share over each whole [`BUCKET`] of the first
/// `window` after `start` from `/proc/stat` (0 where it cannot be read).
fn sample_steal(start: Instant, window: Duration) -> Vec<f64> {
    let buckets = (window.as_nanos() / BUCKET.as_nanos()) as u32;
    let mut last = provenance::steal_jiffies();
    (1..=buckets)
        .map(|k| {
            std::thread::sleep((start + BUCKET * k).saturating_duration_since(Instant::now()));
            let now = provenance::steal_jiffies();
            let share = provenance::steal_share(last, now);
            last = now;
            share
        })
        .collect()
}

fn one_connection(
    mut conn: Conn,
    addr: SocketAddr,
    stream: &Stream,
    phase: Phase,
    until: Until,
    start: Instant,
    next: &AtomicU64,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut answers: std::collections::HashMap<u64, Answers> = Default::default();
    let mut response = String::new();
    loop {
        // ORDERING: Relaxed — a plain ticket counter; each index is
        // taken once and nothing else is published through it.
        let i = next.fetch_add(1, Ordering::Relaxed);
        match until {
            Until::Count(n) if i >= n => break,
            Until::Elapsed(d) if start.elapsed() >= d => break,
            _ => {}
        }
        let req = stream.request(phase, i);
        let line = req.line();
        out.attempted += 1;
        note_op(&mut out.ops, req.op, 1);
        let sent = Instant::now();
        let result = conn.call(&line, &mut response);
        let done = Instant::now();
        out.last_end = Some(done);
        if let Err(e) = result {
            out.failed += 1;
            if out.notes.len() < 4 {
                out.notes.push(format!("request {i}: connection error: {e}"));
            }
            match Conn::connect(addr) {
                Ok(fresh) => conn = fresh,
                Err(_) => break,
            }
            continue;
        }
        if response == "BUSY" || response.starts_with("ERR") {
            out.failed += 1;
            if out.notes.len() < 4 {
                out.notes.push(format!("request {i}: {}", &response[..response.len().min(80)]));
            }
            continue;
        }
        out.latencies.push((done - start, done - sent));
        let entry = answers
            .entry(req.combo)
            .or_insert_with(|| Answers { req: req.clone(), seen: Vec::new() });
        match entry.seen.iter_mut().find(|(s, _)| *s == response) {
            Some((_, count)) => *count += 1,
            None => entry.seen.push((response.clone(), 1)),
        }
    }
    conn.quit();
    out.answers = answers.into_iter().collect();
    out.answers.sort_unstable_by_key(|(combo, _)| *combo);
    out
}

/// Nearest-rank percentile of sorted durations.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The fewest timed requests a run may report percentiles from: p99
/// then has at least ten samples beyond it.
pub const MIN_TIMED_REQUESTS: usize = 1000;

/// Client latency percentiles (p50, p99) in ms, refusing a sample too
/// small to support p99.
pub fn latency_quantiles(latencies: &[(Duration, Duration)]) -> Result<(f64, f64), String> {
    if latencies.len() < MIN_TIMED_REQUESTS {
        return Err(format!(
            "only {} timed responses; p99 needs at least {MIN_TIMED_REQUESTS}",
            latencies.len()
        ));
    }
    let mut sorted: Vec<Duration> = latencies.iter().map(|&(_, d)| d).collect();
    sorted.sort_unstable();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Ok((ms(percentile(&sorted, 0.50)), ms(percentile(&sorted, 0.99))))
}

/// The [`BUCKET`] a completion time falls in.
pub fn bucket_of(t: Duration) -> usize {
    (t.as_nanos() / BUCKET.as_nanos()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Vec<(Duration, Duration)> {
        (0..n).map(|i| (Duration::from_millis(i), Duration::from_micros(1000 + i))).collect()
    }

    #[test]
    fn too_few_timed_requests_are_refused() {
        assert!(latency_quantiles(&samples(999)).is_err());
        assert!(latency_quantiles(&[]).is_err());
        let (p50, p99) = latency_quantiles(&samples(1000)).unwrap();
        assert!((p50 - 1.499).abs() < 1e-9 && (p99 - 1.989).abs() < 1e-9, "{p50} {p99}");
    }

    #[test]
    fn buckets_are_quarter_seconds() {
        let ms = Duration::from_millis;
        assert_eq!(bucket_of(ms(0)), 0);
        assert_eq!(bucket_of(ms(249)), 0);
        assert_eq!(bucket_of(ms(250)), 1);
        assert_eq!(bucket_of(ms(749)), 2);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&sorted, 0.5), Duration::from_millis(50));
        assert_eq!(percentile(&sorted, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&sorted, 1.0), Duration::from_millis(100));
    }
}
