//! Prefetching algorithms from *Effectively Prefetching Remote Memory with
//! Leap* (USENIX ATC 2020), plus the baseline prefetchers the paper compares
//! against.
//!
//! The crate is deliberately free of any simulator or kernel dependencies:
//! a prefetcher consumes a stream of faulting page offsets (one stream per
//! process) and produces, for each fault, the set of extra pages to read
//! alongside the demanded page. This mirrors how Leap's kernel implementation
//! hooks `do_swap_page()` / `swapin_readahead()`.
//!
//! # Components
//!
//! - [`history::AccessHistory`]: the fixed-size circular buffer of page-offset
//!   deltas (§4.1 of the paper).
//! - [`trend`]: `FindTrend` (Algorithm 1) — grows the detection window until a
//!   majority delta emerges.
//! - [`window`]: the adaptive prefetch-window controller (Algorithm 2,
//!   `GetPrefetchWindowSize`).
//! - [`leap`]: [`LeapPrefetcher`], the full majority-trend prefetcher
//!   (`DoPrefetch`).
//! - [`baselines`]: Next-N-Line, Stride, Linux-style Read-Ahead, and a
//!   no-prefetch baseline.
//! - [`programmed`]: a 3PO-style programmed prefetcher that follows a
//!   schedule compiled from a recorded trace.
//! - [`markov`]: an offline-trained first/second-order Markov delta
//!   predictor (Hashemi et al.) frozen into an immutable table-probe model.
//!
//! # Quick example
//!
//! ```
//! use leap_prefetcher::{LeapPrefetcher, Prefetcher, PageAddr};
//!
//! let mut leap = LeapPrefetcher::default();
//! // A regular stride of +2 pages quickly produces prefetch candidates.
//! let mut last = leap_prefetcher::PrefetchDecision::none();
//! for i in 0..16u64 {
//!     last = leap.on_fault(PageAddr(100 + 2 * i));
//! }
//! assert!(!last.is_empty());
//! // Candidates follow the detected +2 trend.
//! assert_eq!(last.pages()[0], PageAddr(100 + 2 * 15 + 2));
//! ```

pub mod baselines;
pub mod history;
pub mod leap;
pub mod markov;
pub mod programmed;
pub mod trend;
pub mod types;
pub mod window;

pub use baselines::{NextNLinePrefetcher, NoPrefetcher, ReadAheadPrefetcher, StridePrefetcher};
pub use history::AccessHistory;
pub use leap::{LeapConfig, LeapPrefetcher};
pub use markov::{FrozenModel, MarkovOrder, MarkovPrefetcher};
pub use programmed::{ProgrammedPrefetcher, DEFAULT_PROGRAM_LOOKAHEAD};
pub use trend::find_trend;
pub use types::{
    Delta, PageAddr, PrefetchDecision, Prefetcher, PrefetcherKind, INLINE_DECISION_PAGES,
};
