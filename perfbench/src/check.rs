//! Answer checks. The expected values come from code that shares
//! nothing with the route under test: `slcs_baselines::hyyro_lcs` for
//! LCS scores and WINDOWS entries, `slcs_baselines::edit_distance` for
//! the 2048-symbol EDIT answers, and this module's banded DP for the
//! 8192-symbol ones, where the full DP costs 0.2 s a pair.

use slcs_baselines::{edit_distance, hyyro_lcs};

use crate::workload::{Op, Request};

/// Exact unit-cost edit distance by Ukkonen's band doubling: the DP
/// restricted to diagonals `|i - j| <= t` returns the true distance
/// whenever its result is at most `t`, so the band only has to grow
/// when the pair is further apart than assumed.
pub fn banded_edit_distance(a: &[u8], b: &[u8]) -> usize {
    let mut t = a.len().abs_diff(b.len()).max(96);
    loop {
        let d = band_dp(a, b, t);
        if d <= t {
            return d;
        }
        t *= 2;
    }
}

/// The edit distance if it is at most `k`, else `None`: one banded
/// pass with `t = k` decides it.
pub fn bounded_edit_distance(a: &[u8], b: &[u8], k: usize) -> Option<usize> {
    let t = k.max(a.len().abs_diff(b.len()));
    Some(band_dp(a, b, t)).filter(|&d| d <= k)
}

/// Edit distance over the band `|i - j| <= t`, cells outside it being
/// unreachable: an upper bound on the distance, exact when at most `t`.
/// Needs `t >= |m - n|` and `m + n < FAR`.
///
/// The DP runs by anti-diagonals `s = i + j`: every cell depends only on
/// the two previous anti-diagonals, so each one is a single loop the
/// compiler vectorizes. Cells are stored by `i + 1`; the slots just
/// outside each anti-diagonal's range hold `FAR`, which is all the next
/// two anti-diagonals can read beyond their own range.
fn band_dp(a: &[u8], b: &[u8], t: usize) -> usize {
    const FAR: i16 = 30_000;
    let (m, n) = (a.len(), b.len());
    if m == 0 || n == 0 {
        return m + n;
    }
    assert!(m + n < FAR as usize && t >= m.abs_diff(n), "band DP out of range");
    // a_pad[i] = a[i - 1]; b_rev[n - s + i] = b[s - i - 1]. The extra
    // slots only meet FAR neighbours, so their value never matters.
    let a_pad: Vec<u8> = std::iter::once(0).chain(a.iter().copied()).collect();
    let b_rev: Vec<u8> = b.iter().rev().copied().chain(std::iter::once(0)).collect();
    let mut before = vec![FAR; m + 3]; // anti-diagonal s - 2
    let mut last = vec![FAR; m + 3]; // anti-diagonal s - 1
    let mut cur = vec![FAR; m + 3];
    last[1] = 0; // s = 0: the empty prefixes
    for s in 1..=m + n {
        let lo = s.saturating_sub(n).max(s.saturating_sub(t).div_ceil(2));
        let hi = m.min(s).min((s + t) / 2);
        let len = hi + 1 - lo;
        let diag = &before[lo..lo + len];
        let side = &last[lo..lo + len + 1];
        let ac = &a_pad[lo..lo + len];
        let bc = &b_rev[n + lo - s..n + lo - s + len];
        let out = &mut cur[lo + 1..lo + 1 + len];
        for x in 0..len {
            let sub = diag[x] + i16::from(ac[x] != bc[x]);
            let gap = side[x].min(side[x + 1]) + 1;
            out[x] = sub.min(gap);
        }
        cur[lo] = FAR;
        cur[hi + 2] = FAR;
        std::mem::swap(&mut before, &mut last);
        std::mem::swap(&mut last, &mut cur);
    }
    last[m + 1] as usize
}

/// The exact distance of a pair: full DP while it is cheap, the banded
/// DP on long pairs.
fn distance(a: &[u8], b: &[u8]) -> usize {
    if a.len() * b.len() <= 1 << 23 {
        edit_distance(a, b)
    } else {
        banded_edit_distance(a, b)
    }
}

/// WINDOWS entries checked against `hyyro_lcs` per distinct (pair,
/// width): the first, the last, the reported best and this many evenly
/// spaced ones. Every entry also passes the structural checks.
pub const WINDOW_SAMPLES: usize = 32;

fn number(field: Option<&str>, what: &str) -> Result<usize, String> {
    let field = field.ok_or_else(|| format!("missing {what}"))?;
    field.parse().map_err(|_| format!("{what} {field:?} is not a number"))
}

/// Checks one response line (newline stripped) against `req`.
pub fn check(req: &Request, response: &str) -> Result<(), String> {
    let mut fields = response.split(' ');
    if fields.next() != Some("OK") {
        return Err(format!("not OK: {}", truncated(response)));
    }
    let (a, b) = (&req.a[..], &req.b[..]);
    match req.op {
        Op::Lcs => {
            let got = number(fields.next(), "score")?;
            expect_eq("LCS score", got, hyyro_lcs(a, b))
        }
        Op::Windows(w) => {
            let best_start = number(fields.next(), "best start")?;
            let best_score = number(fields.next(), "best score")?;
            let list = fields.next().ok_or("missing score list")?;
            let scores = list
                .split(',')
                .map(|s| number(Some(s), "window score"))
                .collect::<Result<Vec<_>, _>>()?;
            let count = b.len() + 1 - w;
            expect_eq("window count", scores.len(), count)?;
            // Sliding a window by one symbol moves its LCS by at most one.
            if let Some(i) = scores.windows(2).position(|p| p[0].abs_diff(p[1]) > 1) {
                return Err(format!("windows {i} and {} differ by more than 1", i + 1));
            }
            // The best window is the first with the highest score.
            let top = scores.iter().copied().max().unwrap_or(0);
            let first = scores.iter().position(|&s| s == top).unwrap_or(0);
            expect_eq("best start", best_start, first)?;
            expect_eq("best score", best_score, top)?;
            let spaced = (0..=WINDOW_SAMPLES).map(|s| s * (count - 1) / WINDOW_SAMPLES);
            for i in spaced.chain([best_start]) {
                expect_eq(&format!("window {i} score"), scores[i], hyyro_lcs(a, &b[i..i + w]))?;
            }
            Ok(())
        }
        Op::Edit => {
            let got = number(fields.next(), "distance")?;
            expect_eq("edit distance", got, distance(a, b))
        }
        Op::EditWindow(w) => {
            let global = number(fields.next(), "global distance")?;
            let start = number(fields.next(), "window start")?;
            let end = number(fields.next(), "window end")?;
            let dist = number(fields.next(), "window distance")?;
            expect_eq("global distance", global, distance(a, b))?;
            expect_eq("window width", end.saturating_sub(start), w)?;
            if end > b.len() {
                return Err(format!("window end {end} past the text ({})", b.len()));
            }
            expect_eq("window distance", dist, edit_distance(a, &b[start..end]))
        }
        Op::EditBounded(k) => {
            let want = match bounded_edit_distance(a, b, k) {
                Some(d) => format!("OK {d}"),
                None => format!("OK gt {k}"),
            };
            if response == want {
                Ok(())
            } else {
                Err(format!("bounded edit: got {response:?}, want {want:?}"))
            }
        }
    }
}

fn expect_eq(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

fn truncated(s: &str) -> &str {
    &s[..s.len().min(80)]
}

/// Checks `items` on up to `threads` threads; returns the failures as
/// (item index, reason).
pub fn check_all(items: &[(Request, String)], threads: usize) -> Vec<(usize, String)> {
    let threads = threads.clamp(1, items.len().max(1));
    let chunk = items.len().div_ceil(threads).max(1);
    let mut failures = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                scope.spawn(move || {
                    part.iter()
                        .enumerate()
                        .filter_map(|(i, (req, resp))| {
                            check(req, resp).err().map(|e| (c * chunk + i, e))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // PANIC: a checker thread only panics on a bug in the checker.
            failures.extend(h.join().expect("checker thread panicked"));
        }
    });
    failures.sort();
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Phase, Stream, Workload};
    use std::sync::Arc;

    #[test]
    fn banded_distance_matches_the_full_dp() {
        let mut rng = slcs_datagen::seeded_rng(9);
        for (len, p) in [(0, 0.0), (1, 0.5), (2, 0.5), (300, 0.05), (500, 0.3), (700, 0.9)] {
            for _ in 0..4 {
                let (a, b) = slcs_datagen::similar_pair(&mut rng, len, 4, p);
                let want = edit_distance(&a, &b);
                assert_eq!(banded_edit_distance(&a, &b), want, "len {len} p {p}");
                for k in [0, want.saturating_sub(1), want, want + 1] {
                    let got = bounded_edit_distance(&a, &b, k);
                    assert_eq!(got, (want <= k).then_some(want), "len {len} p {p} k {k}");
                }
                // Every band at least as wide as the distance is exact;
                // narrower ones never under-estimate.
                let gap = a.len().abs_diff(b.len());
                for t in [gap, gap + 1, gap + 7, want.max(gap), want.max(gap) + 3] {
                    let d = band_dp(&a, &b, t);
                    assert!(d >= want && (t < want || d == want), "len {len} p {p} t {t}");
                }
            }
        }
        let (a, b) = (b"kitten".to_vec(), b"sitting".to_vec());
        assert_eq!(banded_edit_distance(&a, &b), 3);
        assert_eq!(banded_edit_distance(&a, b""), 6);
        for k in 0..6 {
            assert_eq!(bounded_edit_distance(&a, &b, k), (k >= 3).then_some(3));
        }
    }

    fn request(op: Op, a: &[u8], b: &[u8]) -> Request {
        Request { op, a: Arc::from(a), b: Arc::from(b), combo: 0 }
    }

    #[test]
    fn correct_answers_pass() {
        let (a, b) = (&b"abcabba"[..], &b"cbabac"[..]);
        check(&request(Op::Lcs, a, b), "OK 4 bitpar bypass").unwrap();
        check(&request(Op::Windows(3), a, b), "OK 0 3 3,3,3,2").unwrap();
        check(&request(Op::Edit, b"kitten", b"sitting"), "OK 3").unwrap();
        check(&request(Op::EditBounded(2), b"kitten", b"sitting"), "OK gt 2").unwrap();
        check(&request(Op::EditBounded(3), b"kitten", b"sitting"), "OK 3").unwrap();
        check(&request(Op::EditWindow(3), b"abc", b"xxabcxx"), "OK 4 2 5 0").unwrap();
    }

    #[test]
    fn planted_wrong_answers_are_caught() {
        let (a, b) = (&b"abcabba"[..], &b"cbabac"[..]);
        for (op, resp) in [
            (Op::Lcs, "OK 5 bitpar bypass"),
            (Op::Lcs, "BUSY"),
            (Op::Lcs, "ERR internal engine error"),
            (Op::Windows(3), "OK 0 3 3,3,3,3"),
            (Op::Windows(3), "OK 1 3 3,3,3,2"),
            (Op::Windows(3), "OK 0 3 3,3,3"),
            (Op::Windows(3), "OK 0 3 3,1,3,2"),
        ] {
            assert!(check(&request(op, a, b), resp).is_err(), "{op:?} {resp} passed");
        }
        let (a, b) = (&b"kitten"[..], &b"sitting"[..]);
        for (op, resp) in [
            (Op::Edit, "OK 2"),
            (Op::EditBounded(3), "OK gt 3"),
            (Op::EditBounded(2), "OK 3"),
            (Op::EditWindow(3), "OK 3 0 3 2"),
        ] {
            assert!(check(&request(op, a, b), resp).is_err(), "{op:?} {resp} passed");
        }
        // A planted off-by-one on a real workload request is caught too.
        let stream = Stream::new(Workload::CombCold, 1);
        let req = stream.request(Phase::Timed, 0);
        let right = hyyro_lcs(&req.a, &req.b);
        check(&req, &format!("OK {right} grid miss")).unwrap();
        assert!(check(&req, &format!("OK {} grid miss", right + 1)).is_err());
    }

    #[test]
    fn expected_answers_repeat_for_a_seed() {
        let (s1, s2) = (Stream::new(Workload::DnaNear, 4), Stream::new(Workload::DnaNear, 4));
        for i in 0..3 {
            let (r1, r2) = (s1.request(Phase::Timed, i), s2.request(Phase::Timed, i));
            assert_eq!(distance(&r1.a, &r1.b), distance(&r2.a, &r2.b));
        }
    }

    #[test]
    fn check_all_reports_failures_by_index() {
        let (a, b) = (&b"abcabba"[..], &b"cbabac"[..]);
        let items: Vec<(Request, String)> = (0..5)
            .map(|i| {
                let score = if i == 3 { 3 } else { 4 };
                (request(Op::Lcs, a, b), format!("OK {score} bitpar bypass"))
            })
            .collect();
        let failures = check_all(&items, 2);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 3);
    }
}
