//! `perfbench` — the repository's end-to-end benchmark.
//!
//! Starts the release `slcs serve` as its own process and drives one
//! workload over TCP with closed-loop connections (never more than the
//! host's cores), checking every answer. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports per-layer metrics, from the
//! server's STATS/METRICS counters around the same TCP load plus an
//! in-process replay of the same requests through each layer's public
//! functions. The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! perfbench --workload query_hot --seed 1 --seconds 40 --trace 0 \
//!           --server target/release/slcs [--root .]
//! ```

mod check;
mod client;
mod load;
mod provenance;
mod replay;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use client::{Counters, Server};
use load::{LoadResult, Until};
use workload::{Phase, Stream, Workload};

/// The server binary installs this allocator too; installing it here
/// keeps the in-process replay's allocation costs like the server's.
#[global_allocator]
static ALLOC: slcs_alloc::InstrumentedAlloc = slcs_alloc::InstrumentedAlloc;

/// (combo, response) pairs whose check already passed in this run.
type Verified = std::collections::HashSet<(u64, String)>;

/// Server starts per end-to-end run, each timed and then given an equal
/// slice of the timed window.
const SETUP_REPEATS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        need(flag)?.parse().map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        server: PathBuf::from(need("--server")?),
        root: PathBuf::from(value("--root").unwrap_or(".")),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// `{"name": {"value": …, "unit": …}, …}`
fn metrics_json(metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// The closing JSON line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// A finite JSON number (a metric that could not be measured reads 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn connections() -> usize {
    workload::CONNECTIONS.min(provenance::nproc())
}

/// What a run measured.
struct Outcome {
    timed: LoadResult,
    /// The metrics of the closing JSON line: BENCHMARK.json's
    /// `end_to_end` or `per_layer` list.
    metrics: Vec<Metric>,
    /// Measured, printed and recorded, but not gated (see README).
    ungated: Vec<Metric>,
    /// The server's own STATS facts.
    facts: String,
    /// `[slice, place, responses, host steal]` of every bucket of an
    /// end-to-end run, as JSON array items.
    buckets: Vec<String>,
}

/// A started server, ready for the timed window.
struct Started {
    server: Server,
    /// From spawning the server to the end of the untimed requests.
    took: Duration,
    /// The warm-up load, for the planted check.
    warm: LoadResult,
    /// The server's own STATS facts: allocator, SIMD support, grain.
    facts: String,
}

/// Starts the server and sends the untimed setup and warm-up requests,
/// checking their answers.
fn set_up(args: &Args, stream: &Stream, verified: &mut Verified) -> Result<Started, String> {
    let started = Instant::now();
    let server = Server::spawn(&args.server, &args.root)?;
    let conns = connections();
    let mut setup = load::drive(
        server.addr,
        stream,
        Phase::Setup,
        0,
        Until::Count(stream.untimed_len(Phase::Setup)),
        conns,
    )?;
    let mut warm = load::drive(
        server.addr,
        stream,
        Phase::Warmup,
        0,
        Until::Count(stream.untimed_len(Phase::Warmup)),
        conns,
    )?;
    let elapsed = started.elapsed();
    for part in [&mut setup, &mut warm] {
        part.check(provenance::nproc(), verified);
        if part.failed() > 0 {
            return Err(format!("untimed requests failed: {:?}", part.failure_notes));
        }
    }
    let mut stats = String::new();
    client::Conn::connect(server.addr)
        .and_then(|mut conn| conn.call(b"STATS\n", &mut stats))
        .map_err(|e| format!("STATS failed: {e}"))?;
    let facts = stats
        .split_whitespace()
        .filter(|f| ["alloc_installed=", "simd=", "par_grain="].iter().any(|k| f.starts_with(k)))
        .collect::<Vec<_>>()
        .join(" ");
    Ok(Started { server, took: elapsed, warm, facts })
}

/// The checker must reject a planted wrong answer: the first warm-up
/// response with its first number bumped by one.
fn planted_check(warm: &LoadResult) -> Result<(), String> {
    let (req, resp) = warm.first_answer().ok_or("no warm-up answer to plant into")?;
    let mut fields: Vec<String> = resp.split(' ').map(str::to_string).collect();
    let slot = fields
        .iter()
        .position(|f| f.parse::<u64>().is_ok())
        .ok_or("warm-up answer has no number to plant into")?;
    // PANIC: the position above was found by a successful parse.
    fields[slot] = (fields[slot].parse::<u64>().unwrap() + 1).to_string();
    let planted = fields.join(" ");
    match check::check(&req, &planted) {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("the answer check accepted a planted wrong answer {planted:?}")),
    }
}

/// The share of a run's buckets its timing metrics are taken from (20
/// of 160 at 40 s). Replayed over the bucket records of ten query_hot
/// runs, the spread of throughput between quartiles was 0.04 of its
/// median with an eighth, 0.08 with a quarter and 0.13 with a half.
const QUIET_BUCKETS: f64 = 0.125;
/// The share of a run's server starts its set-up time is taken from.
const QUIET_SETUPS: f64 = 0.5;

/// Marks the `share` of the items (rounded up) with the least host
/// `steal`; among equal steal, the lower `tie` rank goes first.
fn least_stolen(steal: &[f64], tie: &[usize], share: f64) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(tie[a].cmp(&tie[b])));
    let mut quiet = vec![false; steal.len()];
    for &k in &order[..(steal.len() as f64 * share).ceil() as usize] {
        quiet[k] = true;
    }
    quiet
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// An end-to-end run: `SETUP_REPEATS` server starts, each followed by
/// an equal slice of the timed window. On a shared VM the hypervisor's
/// steal time is what moves results between runs: it stalls requests
/// (one query_hot slice read 6230 1/s and p99 0.84 ms at 0.4 % steal,
/// another 2240 1/s and p99 11.7 ms at 32 %), and a stretch of heavy
/// steal can last minutes. The timing metrics are therefore taken over
/// the `QUIET_BUCKETS` share of the slices' `load::BUCKET`s with the
/// least steal, ties going round the slices so that on a quiet host
/// every server process contributes alike: throughput is the correct
/// responses completed in them over their length, the latency quantiles
/// are over the same responses. Set-up time is the median over the
/// `QUIET_SETUPS` share of the starts with the least steal, memory the
/// median over all of them.
fn run_e2e(args: &Args, stream: &Stream) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut setup_steal = Vec::new();
    let mut rss = Vec::new();
    let mut slices = Vec::new();
    let mut verified = Verified::new();
    let slice = Duration::from_secs(args.seconds) / SETUP_REPEATS as u32;
    let mut next_index = 0;
    let mut facts = String::new();
    for _ in 0..SETUP_REPEATS {
        let host_before = provenance::steal_jiffies();
        let Started { server, took, warm, facts: f } = set_up(args, stream, &mut verified)?;
        setup_steal.push(provenance::steal_share(host_before, provenance::steal_jiffies()));
        planted_check(&warm)?;
        setups.push(took.as_secs_f64());
        facts = f;
        let part = load::drive(
            server.addr,
            stream,
            Phase::Timed,
            next_index,
            Until::Elapsed(slice),
            connections(),
        )?;
        next_index += part.attempted;
        rss.push(server.peak_rss_mb()?);
        drop(server);
        slices.push(part);
    }
    let checking = Instant::now();
    // (slice, place in the slice) and steal of every bucket.
    let (mut places, mut steal, mut recorded) = (Vec::new(), Vec::new(), Vec::new());
    for (i, part) in slices.iter_mut().enumerate() {
        part.check(provenance::nproc(), &mut verified);
        // The run's quantiles come from the quiet buckets of all slices,
        // so a slice may hold fewer than the 1000 samples they need.
        let quantiles = match load::latency_quantiles(&part.latencies) {
            Ok((q50, q99)) => format!("p50 {q50:.4} ms, p99 {q99:.4} ms"),
            Err(e) => e,
        };
        let buckets = &part.bucket_steal;
        println!(
            "slice {}: {} timed responses, {:.2} 1/s, {quantiles}, rss {:.2} MiB, \
             setup {:.4} s at {:.1} % host steal, then {:.1} % host steal, \
             {} of {} buckets steal-free",
            i + 1,
            part.latencies.len(),
            part.correct() as f64 / part.window.as_secs_f64(),
            rss[i],
            setups[i],
            setup_steal[i] * 100.0,
            buckets.iter().sum::<f64>() / buckets.len().max(1) as f64 * 100.0,
            buckets.iter().filter(|&&s| s == 0.0).count(),
            buckets.len()
        );
        let mut counts = vec![0u64; buckets.len()];
        for &(t, _) in &part.latencies {
            if let Some(c) = counts.get_mut(load::bucket_of(t)) {
                *c += 1;
            }
        }
        recorded.extend(
            counts
                .iter()
                .zip(buckets)
                .enumerate()
                .map(|(at, (c, s))| format!("[{i}, {at}, {c}, {s}]")),
        );
        places.extend((0..buckets.len()).map(|at| (i, at)));
        steal.extend(buckets);
    }
    println!("checked the timed answers in {:.2} s", checking.elapsed().as_secs_f64());
    let ties: Vec<usize> = places.iter().map(|&(i, at)| at * SETUP_REPEATS + i).collect();
    let quiet = least_stolen(&steal, &ties, QUIET_BUCKETS);
    let kept: std::collections::HashSet<(usize, usize)> =
        places.iter().zip(&quiet).filter(|(_, &q)| q).map(|(&p, _)| p).collect();
    let (mut correct, mut latencies) = (0.0, Vec::new());
    for (i, part) in slices.iter().enumerate() {
        let before = latencies.len();
        latencies.extend(
            part.latencies.iter().filter(|(t, _)| kept.contains(&(i, load::bucket_of(*t)))),
        );
        // Only correct responses count towards throughput.
        correct += (latencies.len() - before) as f64 * part.correct() as f64
            / part.latencies.len().max(1) as f64;
    }
    let (p50, p99) = load::latency_quantiles(&latencies)?;
    let quiet_setups =
        least_stolen(&setup_steal, &(0..SETUP_REPEATS).collect::<Vec<_>>(), QUIET_SETUPS);
    let mut kept_setups: Vec<f64> =
        setups.iter().zip(&quiet_setups).filter(|(_, &q)| q).map(|(&s, _)| s).collect();
    println!(
        "timing metrics from the {} of {} buckets with the least host steal (at most {:.1} %), \
         {} timed responses; set-up time from starts {:?} (0-based)",
        kept.len(),
        steal.len(),
        steal.iter().zip(&quiet).filter(|(_, &q)| q).map(|(&s, _)| s).fold(0.0, f64::max) * 100.0,
        latencies.len(),
        (0..SETUP_REPEATS).filter(|&i| quiet_setups[i]).collect::<Vec<_>>()
    );
    let mut timed = LoadResult::default();
    for part in slices {
        timed.absorb(part);
    }
    let quiet_seconds = kept.len() as f64 * load::BUCKET.as_secs_f64();
    let metrics = vec![
        Metric { name: "throughput_rps", value: correct / quiet_seconds, unit: "1/s" },
        Metric { name: "latency_p50_ms", value: p50, unit: "ms" },
        Metric { name: "server_peak_rss_mb", value: median(&mut rss), unit: "MiB" },
        Metric { name: "setup_s", value: median(&mut kept_setups), unit: "s" },
    ];
    let error_rate = timed.failed() as f64 / timed.attempted.max(1) as f64;
    let ungated = vec![
        Metric { name: "latency_p99_ms", value: p99, unit: "ms" },
        Metric { name: "error_rate", value: error_rate, unit: "fraction" },
    ];
    Ok(Outcome { timed, metrics, ungated, facts, buckets: recorded })
}

/// A traced run: the same TCP load with the server's counters read
/// around it, then the in-process replay.
fn run_traced(args: &Args, stream: &Stream) -> Result<Outcome, String> {
    let mut verified = Verified::new();
    let Started { server, warm, facts, .. } = set_up(args, stream, &mut verified)?;
    planted_check(&warm)?;
    let mut probe =
        client::Conn::connect(server.addr).map_err(|e| format!("cannot connect: {e}"))?;
    // Phase accounting makes the pool's barrier time visible in METRICS;
    // it is on for the traced window only.
    let mut reply = String::new();
    probe.call(b"PROFILE on\n", &mut reply).map_err(|e| format!("PROFILE on failed: {e}"))?;
    let before = Counters::read(&mut probe)?;
    let mut timed = load::drive(
        server.addr,
        stream,
        Phase::Timed,
        0,
        Until::Elapsed(Duration::from_secs(args.seconds)),
        connections(),
    )?;
    let after = Counters::read(&mut probe)?;
    probe.quit();
    if reply != "OK profiling on" {
        return Err(format!("PROFILE on answered {reply:?}"));
    }
    drop(server);
    timed.check(provenance::nproc(), &mut verified);
    let metrics =
        replay::per_layer(args.workload, stream, &timed, &before, &after, &out_dir(&args.root))?;
    Ok(Outcome { timed, metrics, ungated: Vec::new(), facts, buckets: Vec::new() })
}

/// Where runs leave their records and span files.
fn out_dir(root: &Path) -> PathBuf {
    root.join(".bench_out")
}

fn run(args: &Args) -> Result<bool, String> {
    let stream = Stream::new(args.workload, args.seed);
    let prov = provenance::collect(args.workload, args.seed, connections());
    println!("workload {}: {}", args.workload.name(), args.workload.why());
    println!("provenance {}", prov.to_json());
    let Outcome { timed, metrics, ungated, facts, buckets } =
        if args.trace { run_traced(args, &stream)? } else { run_e2e(args, &stream)? };
    println!("server {facts}");
    println!(
        "timed requests: {} attempted, {} answered, {} failed, over {:.3} s",
        timed.attempted,
        timed.latencies.len(),
        timed.failed(),
        timed.window.as_secs_f64()
    );
    for note in &timed.failure_notes {
        println!("failure: {note}");
    }
    for m in metrics.iter().chain(&ungated) {
        println!("{:<34} {:>14} {}", m.name, json_number(m.value), m.unit);
    }
    let correct = timed.failed() == 0;
    let dir = out_dir(&args.root);
    let record = format!(
        "{{\"workload\": \"{}\", \"why\": \"{}\", \"trace\": {}, \"provenance\": {}, \"server\": \"{facts}\", \"timed_requests\": {}, \"ungated\": {}, \"buckets\": [{}], \"result\": {}}}\n",
        args.workload.name(),
        args.workload.why(),
        args.trace,
        prov.to_json(),
        timed.latencies.len(),
        metrics_json(&ungated),
        buckets.join(", "),
        result_line(correct, timed.attempted, timed.failed(), &metrics)
    );
    std::fs::create_dir_all(&dir)
        .and_then(|_| {
            std::fs::write(
                dir.join(format!(
                    "{}-seed{}-trace{}.json",
                    args.workload.name(),
                    args.seed,
                    u8::from(args.trace)
                )),
                record,
            )
        })
        .map_err(|e| format!("cannot write the run record: {e}"))?;
    println!("{}", result_line(correct, timed.attempted, timed.failed(), &metrics));
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|mut args| {
        args.server = std::fs::canonicalize(&args.server)
            .map_err(|e| format!("server binary {}: {e}", args.server.display()))?;
        // The engine reads its tuning profile relative to the working
        // directory, so the replay runs where the server runs.
        std::env::set_current_dir(&args.root)
            .map_err(|e| format!("cannot enter {}: {e}", args.root.display()))?;
        args.root = PathBuf::from(".");
        run(&args)
    }) {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("perfbench: some answers were wrong or missing");
            1
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_least_stolen_share() {
        let marked = |q: Vec<bool>| (0..q.len()).filter(|&k| q[k]).collect::<Vec<_>>();
        let steal = [0.13, 0.11, 0.09, 0.11, 0.01, 0.2, 0.3, 0.0];
        let order: Vec<usize> = (0..8).collect();
        assert_eq!(marked(least_stolen(&steal, &order, 0.25)), vec![4, 7]);
        assert_eq!(marked(least_stolen(&steal, &order, 0.5)), vec![1, 2, 4, 7]);
        // Equal steal goes by the tie rank.
        let ties = [7, 6, 5, 4, 3, 2, 1, 0];
        assert_eq!(marked(least_stolen(&[0.0; 8], &ties, 0.25)), vec![6, 7]);
        assert_eq!(marked(least_stolen(&[0.3, 0.1, 0.2], &[0, 1, 2], 0.25)), vec![1]);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
