//! Kasai LCP array, sparse-table RMQ, and the two-string LCP oracle.
//!
//! [`LcpOracle::build`] concatenates the two inputs with a unique
//! separator and a unique smallest sentinel, builds the suffix array
//! (SA-IS), the adjacent-rank LCP array (Kasai), and an idempotent
//! sparse table over it, after which [`LcpOracle::lcp`] answers "how
//! far do `a[i..]` and `b[j..]` match?" in O(1).
//!
//! This is the SA-based LCE of the parlay-style reference code. The
//! BFS no longer uses it: the direct slide [`crate::lce`] answers the
//! same question with nothing to build, so the oracle stays as a
//! reproduction and as the reference the slide is tested against.

use crate::suffix::suffix_array;

/// `lcp[r]` = longest common prefix of the rank-`r` and rank-`r−1`
/// suffixes (`lcp[0] = 0`), by Kasai's h-decrement scan.
fn kasai(text: &[u32], sa: &[u32], rank: &[u32]) -> Vec<u32> {
    let n = text.len();
    let mut lcp = vec![0u32; n];
    let mut h = 0usize;
    for i in 0..n {
        let r = rank[i] as usize;
        if r == 0 {
            h = 0;
            continue;
        }
        let j = sa[r - 1] as usize;
        while i + h < n && j + h < n && text[i + h] == text[j + h] {
            h += 1;
        }
        lcp[r] = h as u32;
        h = h.saturating_sub(1);
    }
    lcp
}

/// Range-minimum in O(1) after an O(n log n) doubling table.
pub struct SparseTable {
    /// `rows[k][i]` = min over `data[i .. i + 2^k]`.
    rows: Vec<Vec<u32>>,
}

impl SparseTable {
    pub fn new(data: &[u32]) -> SparseTable {
        let n = data.len();
        let levels = if n == 0 { 1 } else { usize::BITS as usize - n.leading_zeros() as usize };
        let mut rows = Vec::with_capacity(levels);
        rows.push(data.to_vec());
        for k in 1..levels {
            let half = 1usize << (k - 1);
            let prev = &rows[k - 1];
            let len = n + 1 - (1 << k);
            let mut row = Vec::with_capacity(len);
            for i in 0..len {
                row.push(prev[i].min(prev[i + half]));
            }
            rows.push(row);
        }
        SparseTable { rows }
    }

    /// Minimum over the inclusive range `[l, r]` (two overlapping
    /// power-of-two windows; min is idempotent so the overlap is free).
    pub fn min(&self, l: usize, r: usize) -> u32 {
        debug_assert!(l <= r && r < self.rows[0].len());
        let k = (usize::BITS - 1 - (r - l + 1).leading_zeros()) as usize;
        self.rows[k][l].min(self.rows[k][r + 1 - (1usize << k)])
    }
}

/// O(1) longest-common-prefix queries between suffixes of two fixed
/// strings, after an O((n + m) log (n + m)) build.
pub struct LcpOracle {
    a: Vec<u8>,
    b: Vec<u8>,
    /// SA rank of the concatenation suffix starting at `a[i]`.
    rank_a: Vec<u32>,
    /// SA rank of the concatenation suffix starting at `b[j]`.
    rank_b: Vec<u32>,
    /// RMQ over the Kasai LCP array (row 0 of the table *is* the array).
    rmq: SparseTable,
}

impl LcpOracle {
    /// Builds the oracle in O((n + m) log (n + m)) time (SA-IS is
    /// linear; the sparse table pays the log factor).
    pub fn build(a: &[u8], b: &[u8]) -> LcpOracle {
        let (n, m) = (a.len(), b.len());
        let total = n + m + 2;
        // Concatenate `a`, a separator, `b`, and a smallest sentinel,
        // shifting bytes by 2 so symbols 0 and 1 stay unique. Neither
        // delimiter can match anything else, so a computed LCP never
        // crosses a string boundary and needs no clamping.
        let (text, sa) = {
            let _span = slcs_trace::span!("osed.sa_build", "len" => total);
            let _mem = slcs_alloc::alloc_scope!("osed.sa_build.mem");
            let mut text = Vec::with_capacity(total);
            text.extend(a.iter().map(|&c| u32::from(c) + 2));
            text.push(1);
            text.extend(b.iter().map(|&c| u32::from(c) + 2));
            text.push(0);
            let sa = suffix_array(&text, 258);
            (text, sa)
        };
        let _span = slcs_trace::span!("osed.lcp_build", "len" => total);
        let _mem = slcs_alloc::alloc_scope!("osed.lcp_build.mem");
        let mut rank = vec![0u32; total];
        for (r, &p) in sa.iter().enumerate() {
            rank[p as usize] = r as u32;
        }
        let lcp = kasai(&text, &sa, &rank);
        let rmq = SparseTable::new(&lcp);
        let rank_b = rank[n + 1..n + 1 + m].to_vec();
        rank.truncate(n);
        LcpOracle { a: a.to_vec(), b: b.to_vec(), rank_a: rank, rank_b, rmq }
    }

    /// Length of the longest common prefix of `a[i..]` and `b[j..]`.
    ///
    /// Most queries on similar inputs extend by only a few symbols, so
    /// an 8-byte direct probe (parlay's trick) runs first; only a probe
    /// that survives all 8 comparisons pays the RMQ lookup.
    pub fn lcp(&self, i: usize, j: usize) -> usize {
        if i >= self.a.len() || j >= self.b.len() {
            return 0;
        }
        let probe = (self.a.len() - i).min(self.b.len() - j).min(8);
        for k in 0..probe {
            if self.a[i + k] != self.b[j + k] {
                return k;
            }
        }
        if probe < 8 {
            // One string ran out while every byte matched.
            return probe;
        }
        let (mut l, mut r) = (self.rank_a[i], self.rank_b[j]);
        if l > r {
            std::mem::swap(&mut l, &mut r);
        }
        self.rmq.min(l as usize + 1, r as usize) as usize
    }

    /// Lengths of the strings this oracle was built from.
    pub fn lens(&self) -> (usize, usize) {
        (self.a.len(), self.b.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_lcp(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
        a[i..].iter().zip(&b[j..]).take_while(|(x, y)| x == y).count()
    }

    #[test]
    fn sparse_table_matches_scan_min() {
        let data = [5u32, 3, 9, 3, 0, 7, 2, 8, 1];
        let st = SparseTable::new(&data);
        for l in 0..data.len() {
            for r in l..data.len() {
                let want = data[l..=r].iter().min().copied().unwrap_or(u32::MAX);
                assert_eq!(st.min(l, r), want, "[{l}, {r}]");
            }
        }
    }

    #[test]
    fn oracle_matches_naive_lcp_everywhere() {
        let a = b"abracadabra";
        let b = b"abracedabracadabra";
        let oracle = LcpOracle::build(a, b);
        for i in 0..=a.len() {
            for j in 0..=b.len() {
                assert_eq!(oracle.lcp(i, j), naive_lcp(a, b, i, j), "({i}, {j})");
            }
        }
    }

    #[test]
    fn oracle_handles_long_runs_past_the_probe() {
        // Common prefixes longer than the 8-byte probe force the RMQ
        // path; the separator must stop the match at a string boundary.
        let a = vec![b'x'; 40];
        let mut b = vec![b'x'; 33];
        b.push(b'y');
        let oracle = LcpOracle::build(&a, &b);
        assert_eq!(oracle.lcp(0, 0), 33);
        assert_eq!(oracle.lcp(10, 0), 30);
        assert_eq!(oracle.lcp(0, 20), 13);
    }

    #[test]
    fn oracle_tolerates_empty_strings() {
        let oracle = LcpOracle::build(b"", b"abc");
        assert_eq!(oracle.lcp(0, 0), 0);
        let oracle = LcpOracle::build(b"", b"");
        assert_eq!(oracle.lcp(0, 0), 0);
    }

    #[test]
    fn full_byte_range_symbols_are_handled() {
        let a: Vec<u8> = (0..=255u8).collect();
        let b: Vec<u8> = (0..=255u8).collect();
        let oracle = LcpOracle::build(&a, &b);
        assert_eq!(oracle.lcp(0, 0), 256);
        assert_eq!(oracle.lcp(100, 100), 156);
        assert_eq!(oracle.lcp(0, 1), 0);
    }
}
