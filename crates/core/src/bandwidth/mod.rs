//! Bandwidth minimization for linear task graphs (§2.3 of the paper).
//!
//! **Problem.** Given a path `P` with vertex weights `α` and edge weights
//! `β`, and a load bound `K ≥ max α_i`, find an edge cut `S ⊆ E` of minimum
//! total weight `β(S)` such that every connected component of `P − S`
//! weighs at most `K`.
//!
//! **Approach.** Feasibility is equivalent to hitting every *prime*
//! (minimal critical) subpath ([`prime_subpaths`]), which turns the problem
//! into a consecutive-interval weighted hitting set solved by dynamic
//! programming over the primes. Four interchangeable solvers are provided:
//!
//! | function | algorithm | complexity |
//! |---|---|---|
//! | [`min_bandwidth_cut`] | the paper's TEMP_S deque (§2.3.1) | `O(n + p log q)` |
//! | [`min_bandwidth_cut_naive`] | the paper's naive recurrence | `O(Σ\|P_i\|) ⊆ O(np)` |
//! | [`min_bandwidth_cut_window`] | monotonic-deque DP (post-1994 reference) | `O(n)` |
//! | [`min_bandwidth_cut_oracle`] | textbook DP (test oracle) | `O(n·L)` |
//!
//! All four return cuts of identical weight (property-tested against each
//! other and against brute force). [`analyze_bandwidth`] additionally
//! reports the instance statistics (`p`, `q`, TEMP_S occupancy) that the
//! paper's Figure 2 and Appendix B study. For §3's real-time requirement
//! that the bottleneck *and* the total be minimized,
//! [`min_bandwidth_cut_lexicographic`] optimizes both in lexicographic
//! order via [`min_bandwidth_cut_bounded`].

mod bounded;
mod naive;
mod nonredundant;
mod oracle;
mod prime;
mod stats;
mod temps;

pub use bounded::{min_bandwidth_cut_bounded, min_bandwidth_cut_lexicographic};
pub use naive::min_bandwidth_cut_naive;
pub use nonredundant::{nonredundant_edges, NrEdge};
pub use oracle::{min_bandwidth_cut_oracle, min_bandwidth_cut_window};
pub use prime::{prime_subpaths, PrimeSubpath};
pub use stats::BandwidthStats;
pub use temps::{analyze_bandwidth, analyze_bandwidth_with, min_bandwidth_cut, MergeSearch};
