//! Landau–Vishkin diagonal BFS with a direct longest-common-extension:
//! O(n + m + d²) edit distance, output-sensitive in the distance `d`,
//! with nothing built before the search.
//!
//! Grid position `(i, j)` (a prefix pair `a[..i]`, `b[..j]`) lives on
//! diagonal `id = i − j + m`; `max_row[id]` after round `k` is the
//! largest `i` such that some position on `id` is reachable with at
//! most `k` edits (−1 when none is), always slid to the end of its
//! matching run. Round `k + 1` takes the furthest of the three start
//! rows its round-`k` neighbours offer (substitution, deletion,
//! insertion) and slides from there once. Sliding is monotone along a
//! diagonal, so that one slide ends where the furthest of three
//! separate slides would.
//!
//! The slide is [`lce`], which compares the two suffixes eight bytes at
//! a time. Every round starts a diagonal's slide past where its last
//! one ended, so the slides on one diagonal never overlap, and a whole
//! run costs at most (2d + 1)·(n/8 + d) word compares.
//! [`crate::LcpOracle`] answers the same question in O(1) after an
//! SA + LCP + RMQ build; it stays as a reproduction and as the
//! reference [`lce`] is tested against.

/// Global edit distance.
pub fn edit_distance(a: &[u8], b: &[u8]) -> usize {
    // PANIC: unreachable — the uncapped BFS always terminates with a distance.
    diagonal_bfs(a, b, None).expect("uncapped BFS yields a distance")
}

/// Global edit distance if it is `≤ k`, else `None`. Exits before
/// round `k + 1`, and before any slide when the length difference
/// alone exceeds `k`.
pub fn edit_distance_bounded(a: &[u8], b: &[u8], k: usize) -> Option<usize> {
    diagonal_bfs(a, b, Some(k))
}

/// Alias of [`edit_distance`], kept for callers that name it. The BFS
/// runs sequentially: a round's window is about 2d + 1 cells of a few
/// word compares each, too little work to fork.
pub fn par_edit_distance(a: &[u8], b: &[u8]) -> usize {
    edit_distance(a, b)
}

/// Longest common extension: how many leading bytes `a[i..]` and
/// `b[j..]` share (0 when either suffix is empty or out of range).
///
/// XORs the suffixes one little-endian `u64` at a time; the first
/// non-zero word's lowest set bit lies in the first mismatching byte.
/// A byte loop finishes the last `< 8` bytes.
pub fn lce(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
    let (a, b) = (a.get(i..).unwrap_or_default(), b.get(j..).unwrap_or_default());
    let len = a.len().min(b.len());
    let (a, b) = (&a[..len], &b[..len]);
    let (words_a, _) = a.as_chunks::<8>();
    let (words_b, _) = b.as_chunks::<8>();
    for (w, (x, y)) in words_a.iter().zip(words_b).enumerate() {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return 8 * w + (diff.trailing_zeros() / 8) as usize;
        }
    }
    let done = 8 * words_a.len();
    done + a[done..].iter().zip(&b[done..]).take_while(|(x, y)| x == y).count()
}

fn diagonal_bfs(a: &[u8], b: &[u8], cap: Option<usize>) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        // Pure insertions/deletions; nothing to slide.
        let d = n + m;
        return match cap {
            Some(k) if d > k => None,
            _ => Some(d),
        };
    }
    if let Some(k) = cap {
        // d ≥ |n − m| (the length gap is all indels): a hopeless bound
        // is rejected before any slide.
        if n.abs_diff(m) > k {
            return None;
        }
    }
    let _span = slcs_trace::span!("osed.edit", "n" => n, "m" => m);
    let target = n; // Diag(n, m)
    let mut max_row: Vec<i32> = vec![-1; n + m + 1];
    max_row[m] = lce(a, b, 0, 0) as i32; // Diag(0, 0), slid down its run
    if max_row[target] == n as i32 {
        return Some(0);
    }
    let mut k = 0usize;
    loop {
        k += 1;
        if let Some(cap) = cap {
            if k > cap {
                return None;
            }
        }
        debug_assert!(k <= n + m, "BFS must terminate by round n + m");
        let lo = m - k.min(m);
        let hi = m + k.min(n);
        let _round = slcs_trace::span!("osed.bfs_round", "k" => k, "width" => hi - lo + 1);
        // The round runs in place, left to right: `left` holds diagonal
        // `id − 1`'s round-(k − 1) value after that cell has moved on.
        // Diagonal `lo − 1` lies outside round k − 1's window, so it
        // starts unreachable.
        let mut left = -1;
        for id in lo..=hi {
            let cur = max_row[id];
            let right = max_row.get(id + 1).copied().unwrap_or(-1);
            max_row[id] = extend_diag(a, b, [left, cur, right], id);
            left = cur;
        }
        if max_row[target] == n as i32 {
            return Some(k);
        }
    }
}

/// One frontier cell: the furthest row on diagonal `id` reachable with
/// one more edit than the previous round's rows `[left, cur, right]` on
/// diagonals `id − 1`, `id` and `id + 1`, slid down its matching run.
fn extend_diag(a: &[u8], b: &[u8], [left, cur, right]: [i32; 3], id: usize) -> i32 {
    let (n, m) = (a.len(), b.len());
    let mut start: i32 = -1;
    // Substitution: stay on `id`. At a grid edge nothing is left to
    // substitute, but the position itself stays reachable.
    if cur >= 0 {
        let i = cur as usize;
        let j = i + m - id;
        start = if i == n || j == m { cur } else { cur + 1 };
    }
    // From `id − 1`: delete `a[i]` (advance the row) — or, when the
    // row is already exhausted, delete `b[j − 1]` instead; both single
    // edits land on `id`.
    if left >= 0 {
        start = start.max(if left as usize == n { left } else { left + 1 });
    }
    // From `id + 1`: insert `b[j]` (advance the column) — or, when the
    // column is already exhausted, drop the last row instead.
    if right >= 0 {
        let j = right as usize + m - (id + 1);
        // (i, m) → (i − 1, m); j = m forces i = id + 1 ≥ 1.
        start = start.max(if j == m { right - 1 } else { right });
    }
    if start < 0 {
        return -1;
    }
    // Every start is a grid position on `id`; one slide from the
    // furthest covers the others, and is empty at an edge.
    let i = start as usize;
    start + lce(a, b, i, i + m - id) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use slcs_baselines::edit_distance as dp_edit_distance;

    #[test]
    fn classic_pairs_match_the_dp() {
        for (a, b) in [
            (&b"kitten"[..], &b"sitting"[..]),
            (b"flaw", b"lawn"),
            (b"", b"abc"),
            (b"abc", b""),
            (b"", b""),
            (b"same", b"same"),
            (b"abcdef", b"fedcba"),
            (b"aaaa", b"bbbb"),
            (b"ab", b"ba"),
        ] {
            let want = dp_edit_distance(a, b);
            assert_eq!(edit_distance(a, b), want, "{a:?} vs {b:?}");
            assert_eq!(par_edit_distance(a, b), want, "par {a:?} vs {b:?}");
        }
    }

    #[test]
    fn boundary_shapes_exercise_the_edge_rules() {
        // Prefix pairs and single-sided extensions drive the i = n and
        // j = m branches of the frontier extension.
        for (a, b) in [
            (&b"abc"[..], &b"abcdef"[..]),
            (b"abcdef", b"abc"),
            (b"xabc", b"abc"),
            (b"abc", b"abcx"),
            (b"a", b"aaaaaaa"),
            (b"aaaaaaa", b"a"),
            (b"abcabcabc", b"abc"),
        ] {
            assert_eq!(edit_distance(a, b), dp_edit_distance(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn pseudorandom_pairs_match_the_dp() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % bound
        };
        for sigma in [2u32, 4, 26] {
            for (la, lb) in [(1usize, 1usize), (13, 7), (64, 64), (200, 150)] {
                let a: Vec<u8> = (0..la).map(|_| b'a' + next(sigma) as u8).collect();
                let b: Vec<u8> = (0..lb).map(|_| b'a' + next(sigma) as u8).collect();
                assert_eq!(edit_distance(&a, &b), dp_edit_distance(&a, &b), "sigma={sigma}");
            }
        }
    }

    #[test]
    fn bounded_variant_is_exact_below_the_cap_and_none_above() {
        let (a, b) = (&b"kitten"[..], &b"sitting"[..]);
        assert_eq!(edit_distance_bounded(a, b, 10), Some(3));
        assert_eq!(edit_distance_bounded(a, b, 3), Some(3));
        assert_eq!(edit_distance_bounded(a, b, 2), None);
        assert_eq!(edit_distance_bounded(a, b, 0), None);
        assert_eq!(edit_distance_bounded(a, a, 0), Some(0));
        // Length-gap pre-check: no slide, straight None.
        assert_eq!(edit_distance_bounded(b"ab", b"abcdefgh", 3), None);
        assert_eq!(edit_distance_bounded(b"", b"xyz", 2), None);
        assert_eq!(edit_distance_bounded(b"", b"xyz", 3), Some(3));
    }

    #[test]
    fn similar_inputs_cost_few_rounds_and_stay_exact() {
        // A 2k-byte pair differing by 3 point edits: d = 3, so the BFS
        // runs 3 rounds over a ~7-cell window instead of 4M DP cells.
        let a: Vec<u8> = (0..2048u32).map(|i| b'a' + (i % 4) as u8).collect();
        let mut b = a.clone();
        b[100] = b'z';
        b.remove(700);
        b.insert(1500, b'q');
        assert_eq!(edit_distance(&a, &b), dp_edit_distance(&a, &b));
        assert_eq!(edit_distance_bounded(&a, &b, 3), Some(edit_distance(&a, &b)));
    }

    #[test]
    fn lce_stops_at_every_byte_of_a_word_and_at_either_end() {
        let a: Vec<u8> = (0..40u8).collect();
        for at in 0..a.len() {
            let mut b = a.clone();
            b[at] ^= 0x80;
            assert_eq!(lce(&a, &b, 0, 0), at, "mismatch at {at}");
            assert_eq!(lce(&a, &b[..at], 0, 0), at, "b ends at {at}");
            assert_eq!(lce(&a[..at], &a, 0, 0), at, "a ends at {at}");
        }
        assert_eq!(lce(&a, &a, 0, 0), a.len());
        assert_eq!(lce(&a, &a, a.len(), 0), 0);
        assert_eq!(lce(&a, &a, a.len() + 5, 0), 0, "out of range is empty");
        assert_eq!(lce(b"", b"", 0, 0), 0);
    }
}
