//! The three workloads as deterministic request streams.
//!
//! Every request is a pure function of (workload, seed, phase, index),
//! so the closed-loop client, the answer checker and the in-process
//! replay all regenerate the same bytes without sharing state. Inputs
//! are printable ASCII without whitespace, because the server's line
//! protocol splits on whitespace.

use std::sync::Arc;

use rand::RngExt;
use slcs_datagen::{seeded_rng, similar_pair, uniform_string};

/// Side length of the comb_cold and query_hot pairs.
pub const GRID_LEN: usize = 2048;
/// Symbols of the comb_cold and query_hot pairs: every printable ASCII
/// byte except space, above the engine's bit-parallel cut-off of 64.
pub const GRID_SIGMA: u8 = 94;
/// Length of the dna_near pairs.
pub const DNA_LEN: usize = 8192;
/// Divergence of the dna_near pairs (99 % identity).
pub const DNA_DIVERGENCE: f64 = 0.01;
/// Resident pairs of query_hot.
pub const HOT_PAIRS: usize = 16;
/// Window widths per query_hot pair, spread over n/4..n.
pub const HOT_WIDTHS: usize = 4;
/// Closed-loop connections of every workload. comb_cold once used one,
/// but then its runs could keep fewer than 1000 responses in their
/// least-stolen buckets (see the README).
pub const CONNECTIONS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CombCold,
    QueryHot,
    DnaNear,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::CombCold, Workload::QueryHot, Workload::DnaNear];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CombCold => "comb_cold",
            Workload::QueryHot => "query_hot",
            Workload::DnaNear => "dna_near",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one sentence (as in BENCHMARK.json,
    /// which gates comb_cold and dna_near only; see the README).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CombCold => {
                "the paper's setting: fresh 2048x2048 pairs over 94 symbols on two connections, so \
                 every request misses the cache and takes the grid-parallel comb"
            }
            Workload::QueryHot => {
                "16 resident 2048x2048 pairs queried through cached kernels on two connections: no \
                 combing, so the cost is parsing, formatting, queue handoff, hashing and cache reads"
            }
            Workload::DnaNear => {
                "fresh 8192-symbol DNA pairs at 99% identity on two connections: EDIT takes the \
                 output-sensitive BFS, LCS the bit-parallel kernel, neither the cache nor the comb"
            }
        }
    }

    /// Untimed warm-up requests sent after the server starts (query_hot
    /// also sends its resident-pair setup first).
    pub fn warmup_requests(self) -> u64 {
        match self {
            Workload::CombCold => 64,
            Workload::QueryHot => 64,
            Workload::DnaNear => 96,
        }
    }

    /// STATS `dispatch=` reasons the workload's timed requests should
    /// land in.
    pub fn intended_reasons(self) -> &'static [&'static str] {
        match self {
            Workload::CombCold => &["grid_par"],
            Workload::QueryHot => &["cache_hit"],
            Workload::DnaNear => &["edit_similar", "edit_bounded", "small_alphabet"],
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::CombCold => 0x636f_6d62,
            Workload::QueryHot => 0x686f_7471,
            Workload::DnaNear => 0x646e_616e,
        }
    }
}

/// The request kinds the workloads send.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `LCS a b`
    Lcs,
    /// `WINDOWS w a b`
    Windows(usize),
    /// `EDIT a b`
    Edit,
    /// `EDIT a b w`
    EditWindow(usize),
    /// `EDIT a b k=K`
    EditBounded(usize),
}

impl Op {
    /// The engine operation the server parses this request into.
    pub fn engine_op(self) -> slcs_engine::Operation {
        use slcs_engine::Operation;
        match self {
            Op::Lcs => Operation::Lcs,
            Op::Windows(w) => Operation::Windows { w },
            Op::Edit => Operation::Edit { w: None },
            Op::EditWindow(w) => Operation::Edit { w: Some(w) },
            Op::EditBounded(k) => Operation::EditBounded { k },
        }
    }
}

/// Which part of a run a request belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// query_hot's resident-pair setup: one WINDOWS and one EDIT per pair.
    Setup,
    Warmup,
    Timed,
}

impl Phase {
    fn code(self) -> u64 {
        match self {
            Phase::Setup => 1,
            Phase::Warmup => 2,
            Phase::Timed => 3,
        }
    }
}

/// One request. `combo` names its answer: requests with equal combos
/// must get byte-identical responses (query_hot repeats a few hundred
/// combos; every fresh-pair request is a combo of its own).
#[derive(Clone, Debug)]
pub struct Request {
    pub op: Op,
    pub a: Arc<[u8]>,
    pub b: Arc<[u8]>,
    pub combo: u64,
}

impl Request {
    /// The protocol line, newline included.
    pub fn line(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.a.len() + self.b.len() + 32);
        match self.op {
            Op::Lcs => out.extend_from_slice(b"LCS "),
            Op::Windows(w) => out.extend_from_slice(format!("WINDOWS {w} ").as_bytes()),
            Op::Edit | Op::EditWindow(_) | Op::EditBounded(_) => out.extend_from_slice(b"EDIT "),
        }
        out.extend_from_slice(&self.a);
        out.push(b' ');
        out.extend_from_slice(&self.b);
        match self.op {
            Op::EditWindow(w) => out.extend_from_slice(format!(" {w}").as_bytes()),
            Op::EditBounded(k) => out.extend_from_slice(format!(" k={k}").as_bytes()),
            _ => {}
        }
        out.push(b'\n');
        out
    }

    /// The engine request the server builds from [`Self::line`].
    pub fn engine_request(&self) -> slcs_engine::CompareRequest {
        slcs_engine::CompareRequest::new(self.a.clone(), self.b.clone(), self.op.engine_op())
    }
}

/// A resident query_hot pair and its window widths.
struct HotPair {
    a: Arc<[u8]>,
    b: Arc<[u8]>,
    widths: [usize; HOT_WIDTHS],
}

/// A workload's request stream for one seed.
pub struct Stream {
    pub workload: Workload,
    pub seed: u64,
    hot: Vec<HotPair>,
}

/// SplitMix64 finalizer: spreads (seed, workload, phase, index) over
/// the generator's seed space.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Printable, whitespace-free ASCII for symbols `0..94`.
fn printable(symbols: Vec<u8>) -> Arc<[u8]> {
    symbols.into_iter().map(|s| b'!' + s).collect::<Vec<u8>>().into()
}

fn dna(symbols: Vec<u8>) -> Arc<[u8]> {
    symbols.into_iter().map(|s| b"ACGT"[s as usize]).collect::<Vec<u8>>().into()
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut hot = Vec::new();
        if workload == Workload::QueryHot {
            let mut rng = seeded_rng(mix(seed ^ workload.salt()));
            let lo = GRID_LEN / 4;
            let span = GRID_LEN - lo;
            for _ in 0..HOT_PAIRS {
                let a = printable(uniform_string(&mut rng, GRID_LEN, GRID_SIGMA));
                let b = printable(uniform_string(&mut rng, GRID_LEN, GRID_SIGMA));
                let mut widths = [0; HOT_WIDTHS];
                for (j, w) in widths.iter_mut().enumerate() {
                    *w = lo + (j * span + rng.random_range(0..span)) / HOT_WIDTHS;
                }
                hot.push(HotPair { a, b, widths });
            }
        }
        Stream { workload, seed, hot }
    }

    /// Number of requests in `phase` that precede the timed window.
    pub fn untimed_len(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Setup if self.workload == Workload::QueryHot => 2 * HOT_PAIRS as u64,
            Phase::Setup => 0,
            Phase::Warmup => self.workload.warmup_requests(),
            Phase::Timed => 0,
        }
    }

    /// Request `i` of `phase`.
    pub fn request(&self, phase: Phase, i: u64) -> Request {
        let key = mix(self.seed ^ self.workload.salt()) ^ mix(phase.code() << 56 ^ i);
        let mut rng = seeded_rng(key);
        let combo = phase.code() << 56 | i;
        match self.workload {
            Workload::CombCold => Request {
                op: Op::Lcs,
                a: printable(uniform_string(&mut rng, GRID_LEN, GRID_SIGMA)),
                b: printable(uniform_string(&mut rng, GRID_LEN, GRID_SIGMA)),
                combo,
            },
            Workload::DnaNear => {
                let (a, b) = similar_pair(&mut rng, DNA_LEN, 4, DNA_DIVERGENCE);
                let roll = rng.random_range(0..100u32);
                let op = if roll < 45 {
                    Op::Edit
                } else if roll < 90 {
                    // K spread over ±30 % around p·n, so both `OK d` and
                    // `OK gt K` answers occur.
                    let center = DNA_DIVERGENCE * DNA_LEN as f64;
                    Op::EditBounded(
                        rng.random_range((0.7 * center) as usize..(1.3 * center) as usize),
                    )
                } else {
                    Op::Lcs
                };
                Request { op, a: dna(a), b: dna(b), combo }
            }
            Workload::QueryHot => {
                if phase == Phase::Setup {
                    let pair = &self.hot[(i / 2) as usize];
                    let w = pair.widths[0];
                    let op = if i.is_multiple_of(2) { Op::Windows(w) } else { Op::EditWindow(w) };
                    return self.hot_request(i / 2, op);
                }
                let p = rng.random_range(0..HOT_PAIRS as u64);
                let w = self.hot[p as usize].widths[rng.random_range(0..HOT_WIDTHS)];
                let roll = rng.random_range(0..10u32);
                let op = match roll {
                    0 => Op::Lcs,
                    1 => Op::EditWindow(w),
                    _ => Op::Windows(w),
                };
                self.hot_request(p, op)
            }
        }
    }

    fn hot_request(&self, p: u64, op: Op) -> Request {
        let pair = &self.hot[p as usize];
        let (tag, w) = match op {
            Op::Lcs => (0, 0),
            Op::Windows(w) => (1, w),
            Op::EditWindow(w) => (2, w),
            Op::Edit | Op::EditBounded(_) => unreachable!("query_hot sends no global EDIT"),
        };
        Request { op, a: pair.a.clone(), b: pair.b.clone(), combo: p << 32 | tag << 24 | w as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for workload in Workload::ALL {
            let (s1, s2) = (Stream::new(workload, 7), Stream::new(workload, 7));
            let other = Stream::new(workload, 8);
            for phase in [Phase::Setup, Phase::Warmup, Phase::Timed] {
                let n = s1.untimed_len(phase).max(if phase == Phase::Timed { 40 } else { 0 });
                for i in 0..n {
                    let (r1, r2) = (s1.request(phase, i), s2.request(phase, i));
                    assert_eq!(r1.line(), r2.line(), "{} {phase:?} {i}", workload.name());
                    assert_eq!(r1.combo, r2.combo);
                }
            }
            let differs = (0..40).any(|i| {
                s1.request(Phase::Timed, i).line() != other.request(Phase::Timed, i).line()
            });
            assert!(differs, "{}: seeds 7 and 8 gave the same stream", workload.name());
        }
    }

    #[test]
    fn lines_are_printable_single_lines() {
        for workload in Workload::ALL {
            let stream = Stream::new(workload, 3);
            for i in 0..20 {
                let line = stream.request(Phase::Timed, i).line();
                let body = &line[..line.len() - 1];
                assert_eq!(line.last(), Some(&b'\n'));
                assert!(body.iter().all(|&c| c == b' ' || c.is_ascii_graphic()));
                let fields = body.split(|&c| c == b' ').count();
                assert!((3..=4).contains(&fields), "{} fields", fields);
            }
        }
    }

    #[test]
    fn routes_hold_by_construction() {
        let threads = 2;
        let comb = Stream::new(Workload::CombCold, 11);
        for i in 0..16 {
            let r = comb.request(Phase::Timed, i);
            assert!(
                slcs_engine::alphabet_size(&r.a, &r.b) > slcs_engine::dispatch::BITPAR_MAX_SIGMA
            );
            let d = slcs_engine::decide(&r.op.engine_op(), &r.a, &r.b, threads);
            assert_eq!(d.reason.token(), "grid_par");
        }
        let dna = Stream::new(Workload::DnaNear, 11);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let r = dna.request(Phase::Timed, i);
            assert!(slcs_engine::similar_inputs(&r.a, &r.b), "pair {i} fails the probe");
            let d = slcs_engine::decide(&r.op.engine_op(), &r.a, &r.b, threads);
            assert!(Workload::DnaNear.intended_reasons().contains(&d.reason.token()));
            seen.insert(d.reason.token());
        }
        assert_eq!(seen.len(), 3, "all three dna_near routes occur: {seen:?}");
    }

    #[test]
    fn query_hot_setup_covers_every_pair() {
        let stream = Stream::new(Workload::QueryHot, 5);
        let setup: Vec<Request> = (0..stream.untimed_len(Phase::Setup))
            .map(|i| stream.request(Phase::Setup, i))
            .collect();
        for p in 0..HOT_PAIRS {
            let pair = &stream.hot[p];
            assert!(pair.widths.iter().all(|&w| (GRID_LEN / 4..=GRID_LEN).contains(&w)));
            assert!(setup.iter().any(|r| r.a == pair.a && matches!(r.op, Op::Windows(_))));
            assert!(setup.iter().any(|r| r.a == pair.a && matches!(r.op, Op::EditWindow(_))));
        }
        // Every timed request targets a resident pair and one of its widths.
        for i in 0..200 {
            let r = stream.request(Phase::Timed, i);
            let pair = stream.hot.iter().find(|p| p.a == r.a).expect("resident pair");
            if let Op::Windows(w) | Op::EditWindow(w) = r.op {
                assert!(pair.widths.contains(&w));
            }
        }
    }
}
