//! slcs-osed — output-sensitive edit distance.
//!
//! Every other algorithm in this workspace pays for the full `n × m`
//! grid even when the inputs are 99% identical — the production-
//! realistic case (genome revisions, log/version diffing). This crate
//! implements the Landau–Vishkin alternative: breadth-first expand the
//! edit-distance frontier one edit at a time, sliding each diagonal
//! down its run of matches, so a distance `d` costs O(d²) frontier
//! cells instead of `n · m`.
//!
//! * [`bfs`] — the diagonal BFS and the LCE it slides with:
//!   [`edit_distance`], [`edit_distance_bounded`] (early exit past a
//!   threshold `k`), [`par_edit_distance`] (an alias of
//!   [`edit_distance`]), and [`lce`], the direct longest common
//!   extension that compares eight bytes at a time. No request builds
//!   anything before the search.
//! * [`suffix`] and [`lcp`] — SA-IS suffix array, Kasai LCP array and
//!   sparse-table RMQ behind [`LcpOracle`]: the SA-based LCE of the
//!   parlay-style reference code (an 8-byte direct probe before the
//!   RMQ), kept as a reproduction and as the reference [`lce`] is
//!   tested against. No request path builds it.
//!
//! The engine's adaptive dispatcher routes high-similarity `EDIT`
//! requests here (see `docs/OSED.md`); everything in this crate is
//! also usable standalone:
//!
//! ```
//! assert_eq!(slcs_osed::edit_distance(b"kitten", b"sitting"), 3);
//! assert_eq!(slcs_osed::edit_distance_bounded(b"kitten", b"sitting", 2), None);
//! ```

pub mod bfs;
pub mod lcp;
pub mod suffix;

pub use bfs::{edit_distance, edit_distance_bounded, lce, par_edit_distance};
pub use lcp::{LcpOracle, SparseTable};
pub use suffix::suffix_array;
