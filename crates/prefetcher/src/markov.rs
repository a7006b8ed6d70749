//! An offline-trained Markov *delta* prefetcher.
//!
//! Related work on learned prefetching (Hashemi et al., "Learning Memory
//! Access Patterns") models the fault stream as transitions between
//! address *deltas* rather than absolute addresses: the vocabulary stays
//! small, and regular patterns (strides, alternating strides, pointer-chase
//! loops) become high-probability transitions. This module implements the
//! classical table-driven version of that idea:
//!
//! - **Training** ([`train`] / `train_with`) runs once, offline, over a
//!   corpus of recorded [`AccessTrace`]s and counts first-order
//!   (`delta → next delta`) and second-order
//!   (`(delta, delta) → next delta`) transitions. The counts are then
//!   *frozen* into ranked per-context candidate lists — a [`FrozenModel`].
//!   Counting is pure commutative addition and freezing sorts with a total
//!   order, so the same corpus produces an identical model **in any trace
//!   order** (the determinism contract the proptest suite pins).
//! - **Replay** ([`MarkovPrefetcher`]) holds the frozen model behind an
//!   [`Arc`] and keeps only a tiny per-process cursor (last address, last
//!   two deltas). Every fault is a pure table probe plus a bounded greedy
//!   walk — no RNG, no online mutation of the model — so plugging the
//!   prefetcher into a replay leaves every other random stream untouched
//!   and the Serial/Threaded bit-identity contract intact.
//!
//! The second-order predictor backs off to the first-order table when a
//! delta pair was never observed, the standard smoothing for sparse
//! contexts.
//!
//! # Example
//!
//! ```
//! use leap_prefetcher::markov::{train, MarkovOrder, MarkovPrefetcher};
//! use leap_prefetcher::{PageAddr, Prefetcher};
//! use leap_sim_core::units::MIB;
//!
//! // Profile a +3-stride run, freeze the model, replay it elsewhere.
//! let profile = leap_workloads::stride_trace(MIB, 3, 1);
//! let model = train(std::slice::from_ref(&profile), MarkovOrder::First);
//! let mut markov = MarkovPrefetcher::new(model.into());
//! let _ = markov.on_fault(PageAddr(100));
//! let decision = markov.on_fault(PageAddr(103));
//! // The learned +3 transition chains ahead of the fault.
//! assert_eq!(decision.pages()[0], PageAddr(106));
//! assert_eq!(markov.name(), "Markov-1");
//! ```

use crate::types::{Delta, PageAddr, PrefetchDecision, Prefetcher};
use leap_workloads::AccessTrace;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default chain depth of the greedy prediction walk (pages prefetched per
/// fault), matching the paper's default maximum prefetch window.
pub(crate) const DEFAULT_MARKOV_LOOKAHEAD: usize = 8;

/// Default number of ranked candidate deltas kept per context at freeze
/// time. The top candidate drives the greedy chain; the alternatives widen
/// the first prediction step for contexts with competing continuations.
pub(crate) const DEFAULT_MARKOV_FANOUT: usize = 2;

/// Which transition order the model predicts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MarkovOrder {
    /// Predict from the last delta alone.
    First,
    /// Predict from the last two deltas, backing off to first order.
    Second,
}

impl MarkovOrder {
    /// Report-label name for a model of this order.
    pub fn label(self) -> &'static str {
        match self {
            MarkovOrder::First => "Markov-1",
            MarkovOrder::Second => "Markov-2",
        }
    }
}

/// One ranked continuation of a context: the next delta and how often the
/// corpus took it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RankedDelta {
    /// The continuation delta.
    pub delta: i64,
    /// Occurrences in the training corpus.
    pub count: u64,
}

/// A trained, immutable Markov delta model.
///
/// Built once by [`train`] / `train_with`; replay only reads it. Equality
/// is structural over the full ranked tables, so two training runs over the
/// same corpus compare equal however the corpus was ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenModel {
    order: MarkovOrder,
    lookahead: usize,
    fanout: usize,
    /// `last delta → ranked next deltas` (count-descending, delta-ascending).
    first: BTreeMap<i64, Vec<RankedDelta>>,
    /// `(previous delta, last delta) → ranked next deltas`.
    second: BTreeMap<(i64, i64), Vec<RankedDelta>>,
    /// Transitions counted during training (both orders).
    trained_transitions: u64,
}

impl FrozenModel {
    /// The order this model predicts with.
    pub fn order(&self) -> MarkovOrder {
        self.order
    }

    /// Total transitions observed during training (both orders).
    pub fn trained_transitions(&self) -> u64 {
        self.trained_transitions
    }

    /// The ranked continuations of a first-order context.
    pub(crate) fn first_order(&self, last_delta: i64) -> &[RankedDelta] {
        self.first.get(&last_delta).map_or(&[], Vec::as_slice)
    }

    /// The ranked continuations of a second-order context.
    pub(crate) fn second_order(&self, prev_delta: i64, last_delta: i64) -> &[RankedDelta] {
        self.second
            .get(&(prev_delta, last_delta))
            .map_or(&[], Vec::as_slice)
    }

    /// The ranked continuations the configured order would probe for the
    /// cursor `(prev_delta, last_delta)`, applying second-order back-off.
    fn probe(&self, prev_delta: Option<i64>, last_delta: i64) -> &[RankedDelta] {
        if self.order == MarkovOrder::Second {
            if let Some(prev) = prev_delta {
                let ranked = self.second_order(prev, last_delta);
                if !ranked.is_empty() {
                    return ranked;
                }
            }
        }
        self.first_order(last_delta)
    }
}

/// Trains a model over `traces` with the default lookahead and fanout.
///
/// Each trace is one process's recorded access sequence; transitions are
/// counted per trace (deltas never straddle trace boundaries) and summed,
/// so the result does not depend on the order of the traces.
pub fn train(traces: &[AccessTrace], order: MarkovOrder) -> FrozenModel {
    train_with(
        traces,
        order,
        DEFAULT_MARKOV_LOOKAHEAD,
        DEFAULT_MARKOV_FANOUT,
    )
}

/// Trains a model over `traces`, keeping the top `fanout` continuations per
/// context and predicting `lookahead` pages ahead per fault.
pub(crate) fn train_with(
    traces: &[AccessTrace],
    order: MarkovOrder,
    lookahead: usize,
    fanout: usize,
) -> FrozenModel {
    let mut first_counts: BTreeMap<i64, BTreeMap<i64, u64>> = BTreeMap::new();
    let mut second_counts: BTreeMap<(i64, i64), BTreeMap<i64, u64>> = BTreeMap::new();
    let mut trained_transitions = 0u64;
    for trace in traces {
        let pages = trace.page_sequence();
        let deltas: Vec<i64> = pages
            .windows(2)
            .map(|w| PageAddr(w[1]).delta_from(PageAddr(w[0])).0)
            .collect();
        for w in deltas.windows(2) {
            *first_counts
                .entry(w[0])
                .or_default()
                .entry(w[1])
                .or_default() += 1;
            trained_transitions += 1;
        }
        for w in deltas.windows(3) {
            *second_counts
                .entry((w[0], w[1]))
                .or_default()
                .entry(w[2])
                .or_default() += 1;
            trained_transitions += 1;
        }
    }
    FrozenModel {
        order,
        lookahead: lookahead.max(1),
        fanout: fanout.max(1),
        first: freeze(first_counts, fanout.max(1)),
        second: freeze(second_counts, fanout.max(1)),
        trained_transitions,
    }
}

/// Ranks each context's continuation counts (count-descending, then
/// delta-ascending for a total, corpus-order-independent order) and keeps
/// the top `fanout`.
fn freeze<K: Ord>(
    counts: BTreeMap<K, BTreeMap<i64, u64>>,
    fanout: usize,
) -> BTreeMap<K, Vec<RankedDelta>> {
    counts
        .into_iter()
        .map(|(context, continuations)| {
            let mut ranked: Vec<RankedDelta> = continuations
                .into_iter()
                .map(|(delta, count)| RankedDelta { delta, count })
                .collect();
            ranked.sort_by(|a, b| b.count.cmp(&a.count).then(a.delta.cmp(&b.delta)));
            ranked.truncate(fanout);
            (context, ranked)
        })
        .collect()
}

/// The replay-side prefetcher: a frozen model plus a per-process cursor.
///
/// Per fault it records the new delta, probes the model for the cursor's
/// context, and emits the top-ranked continuations of the first step
/// followed by a greedy most-likely chain up to the model's lookahead. Pure
/// table lookups — no randomness, no model mutation.
#[derive(Debug, Clone)]
pub struct MarkovPrefetcher {
    model: Arc<FrozenModel>,
    last: Option<PageAddr>,
    last_delta: Option<i64>,
    prev_delta: Option<i64>,
}

impl MarkovPrefetcher {
    /// Wraps a frozen model for one process's fault stream. The model is
    /// shared — per-core replicas clone the [`Arc`], not the tables.
    pub fn new(model: Arc<FrozenModel>) -> Self {
        MarkovPrefetcher {
            model,
            last: None,
            last_delta: None,
            prev_delta: None,
        }
    }

    /// The model this prefetcher predicts with.
    #[cfg(test)]
    pub(crate) fn model(&self) -> &FrozenModel {
        &self.model
    }

    fn predict(&self, addr: PageAddr) -> PrefetchDecision {
        let Some(last_delta) = self.last_delta else {
            return PrefetchDecision::none();
        };
        let mut decision = PrefetchDecision::none();
        // Returns whether the page was new — the greedy chain below stops
        // on the first revisit, which both bounds the loop (a learned delta
        // cycle like +d/-d would otherwise walk forever without growing the
        // decision) and keeps the chain from re-promising pages.
        let push = |decision: &mut PrefetchDecision, page: PageAddr| -> bool {
            if page != addr && !decision.contains(page) {
                decision.push(page);
                return true;
            }
            false
        };
        // First step: every ranked continuation of the current context.
        let ranked = self.model.probe(self.prev_delta, last_delta);
        for candidate in ranked {
            push(&mut decision, addr.offset(Delta(candidate.delta)));
        }
        let Some(best) = ranked.first() else {
            return decision;
        };
        // Then chase the most likely chain ahead of the fault.
        let mut page = addr.offset(Delta(best.delta));
        let mut prev = Some(last_delta);
        let mut ctx = best.delta;
        while decision.len() < self.model.lookahead {
            let Some(next) = self.model.probe(prev, ctx).first() else {
                break;
            };
            let stepped = page.offset(Delta(next.delta));
            if stepped == page || !push(&mut decision, stepped) {
                // A learned zero delta (or address-space saturation) makes
                // no forward progress, and a revisited page means the most
                // likely chain has entered a cycle; either way the chain
                // is done.
                break;
            }
            page = stepped;
            prev = Some(ctx);
            ctx = next.delta;
        }
        decision
    }
}

impl Prefetcher for MarkovPrefetcher {
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision {
        if let Some(last) = self.last {
            self.prev_delta = self.last_delta;
            self.last_delta = Some(addr.delta_from(last).0);
        }
        self.last = Some(addr);
        self.predict(addr)
    }

    fn on_prefetch_hit(&mut self, _addr: PageAddr) {}

    fn name(&self) -> &'static str {
        self.model.order().label()
    }

    fn reset(&mut self) {
        self.last = None;
        self.last_delta = None;
        self.prev_delta = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_sim_core::units::MIB;
    use leap_sim_core::Nanos;
    use leap_workloads::{sequential_trace, stride_trace, Access};

    fn fault(p: &mut MarkovPrefetcher, page: u64) -> PrefetchDecision {
        p.on_fault(PageAddr(page))
    }

    fn trace_of(name: &str, pages: &[u64]) -> AccessTrace {
        AccessTrace::new(
            name,
            pages
                .iter()
                .map(|&p| Access::read(p, Nanos::ZERO))
                .collect(),
        )
    }

    #[test]
    fn stride_profile_predicts_the_stride_chain() {
        let profile = stride_trace(MIB, 4, 1);
        let model = train(std::slice::from_ref(&profile), MarkovOrder::First);
        let mut p = MarkovPrefetcher::new(model.into());
        let _ = fault(&mut p, 1000);
        let d = fault(&mut p, 1004);
        assert_eq!(d.pages()[0], PageAddr(1008));
        // The greedy chain keeps striding up to the lookahead (one slot may
        // go to the profile's wrap-around delta, the second-ranked
        // continuation of the +4 context).
        assert_eq!(d.len(), DEFAULT_MARKOV_LOOKAHEAD);
        assert!(d.contains(PageAddr(1004 + 4 * (DEFAULT_MARKOV_LOOKAHEAD as u64 - 1))));
    }

    #[test]
    fn first_fault_predicts_nothing() {
        let profile = sequential_trace(MIB, 1);
        let model = train(std::slice::from_ref(&profile), MarkovOrder::First);
        let mut p = MarkovPrefetcher::new(model.into());
        assert!(fault(&mut p, 7).is_empty());
    }

    #[test]
    fn unknown_context_predicts_nothing() {
        let profile = stride_trace(MIB, 4, 1);
        let model = train(std::slice::from_ref(&profile), MarkovOrder::First);
        let mut p = MarkovPrefetcher::new(model.into());
        let _ = fault(&mut p, 0);
        // A -100 delta never appears in a +4 stride profile.
        assert!(fault(&mut p, 100).is_empty() || p.model().first_order(100).is_empty());
        let d = fault(&mut p, 3);
        // Delta -97 is equally unknown.
        assert!(d.is_empty());
    }

    #[test]
    fn second_order_disambiguates_alternating_strides() {
        // Page sequence 0, 1, 3, 4, 6, 7, 9 ... alternates deltas +1, +2.
        let pages: Vec<u64> = (0..600u64).map(|i| (i / 2) * 3 + i % 2).collect();
        let trace = trace_of("alt", &pages);
        let model = train(std::slice::from_ref(&trace), MarkovOrder::Second);
        let mut p = MarkovPrefetcher::new(model.into());
        let _ = fault(&mut p, 0);
        let _ = fault(&mut p, 1);
        // Cursor deltas (+1, +2) → next delta is +1, then +2, ...
        let d = fault(&mut p, 3);
        assert_eq!(d.pages()[0], PageAddr(4));
        assert!(d.contains(PageAddr(6)));
        assert_eq!(p.name(), "Markov-2");
    }

    #[test]
    fn second_order_backs_off_to_first_order() {
        let profile = stride_trace(MIB, 5, 1);
        let model = train(std::slice::from_ref(&profile), MarkovOrder::Second);
        let mut p = MarkovPrefetcher::new(model.into());
        // Only one delta so far: the pair context does not exist yet, but
        // first-order knowledge of +5 still predicts.
        let _ = fault(&mut p, 50);
        let d = fault(&mut p, 55);
        assert_eq!(d.pages()[0], PageAddr(60));
    }

    #[test]
    fn cyclic_profile_terminates_with_a_bounded_decision() {
        // A ping-pong loop teaches the model a pure +8/-8 delta cycle. The
        // greedy chain must stop at the first revisited page instead of
        // walking the cycle forever (every delta cycle returns to already
        // promised pages, since its deltas sum to zero).
        let pages: Vec<u64> = (0..400u64).map(|i| (i % 2) * 8).collect();
        let trace = trace_of("pingpong", &pages);
        let model = train(std::slice::from_ref(&trace), MarkovOrder::First);
        let mut p = MarkovPrefetcher::new(model.into());
        let _ = fault(&mut p, 0);
        let d = fault(&mut p, 8);
        assert!(d.contains(PageAddr(0)));
        assert!(d.len() <= DEFAULT_MARKOV_LOOKAHEAD);
    }

    #[test]
    fn training_is_corpus_order_independent() {
        let a = stride_trace(MIB, 2, 1);
        let b = sequential_trace(MIB, 2);
        let c = stride_trace(MIB, 7, 3);
        let forward = train(&[a.clone(), b.clone(), c.clone()], MarkovOrder::Second);
        let backward = train(&[c, b, a], MarkovOrder::Second);
        assert_eq!(forward, backward);
    }

    #[test]
    fn freezing_ranks_by_count_then_delta() {
        // Deltas alternate +1, +2: context +1 continues with +2 three
        // times and never with +1, so +2 ranks first.
        let trace = trace_of("mix", &[0, 1, 3, 4, 6, 7, 9, 10]);
        let model = train(std::slice::from_ref(&trace), MarkovOrder::First);
        let ranked = model.first_order(1);
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].delta, 2, "most frequent continuation first");
        assert!(ranked.windows(2).all(|w| w[0].count >= w[1].count));

        // Equal counts break the tie toward the smaller delta, so ranking
        // never depends on corpus order.
        // Context +1 continues once with +2 and once with +3.
        let tied = trace_of("tie", &[0, 1, 3, 10, 11, 14]);
        let model = train(std::slice::from_ref(&tied), MarkovOrder::First);
        let ranked = model.first_order(1);
        assert_eq!(ranked[0].count, ranked[1].count);
        assert!(ranked[0].delta < ranked[1].delta);
    }

    #[test]
    fn reset_clears_the_cursor_not_the_model() {
        let profile = stride_trace(MIB, 4, 1);
        let model = train(std::slice::from_ref(&profile), MarkovOrder::First);
        let mut p = MarkovPrefetcher::new(model.into());
        let _ = fault(&mut p, 0);
        let _ = fault(&mut p, 4);
        p.reset();
        assert!(fault(&mut p, 0).is_empty(), "cursor state was cleared");
        assert!(p.model().trained_transitions() > 0, "model survives reset");
    }

    #[test]
    fn model_reports_its_order() {
        let pages: Vec<u64> = (0..100u64).map(|i| i * 3).collect();
        let profile = trace_of("pure-stride", &pages);
        let model = train(std::slice::from_ref(&profile), MarkovOrder::First);
        assert_eq!(model.order(), MarkovOrder::First);
    }
}
