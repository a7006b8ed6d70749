//! A 3PO-style *programmed* prefetcher.
//!
//! Related work (3PO, "Programmed Far-Memory Prefetching for Oblivious
//! Applications") observes that for many far-memory applications the access
//! sequence is known ahead of time — from a profiling run, a compiler pass,
//! or the application's own structure — so prefetching can follow a
//! *program* instead of reacting to a history window. This baseline replays
//! such a program: given the future page sequence, each fault looks itself
//! up in the program and prefetches the next `lookahead` distinct upcoming
//! pages.
//!
//! With a perfect program this is an oracle — an upper bound on what any
//! history-based prefetcher (including Leap's majority-trend detection) can
//! achieve; with a stale or wrong program it degrades gracefully to no
//! prefetching. It exists here both as a reference point for Figure 9/10
//! style comparisons and as the canonical example of a *third-party*
//! algorithm plugging into the simulators through `leap`'s
//! `SimConfigBuilder::custom_prefetcher` without touching the `leap` crate.

use crate::types::{PageAddr, PrefetchDecision, Prefetcher};
use std::collections::HashMap;

/// Default lookahead of the programmed prefetcher (pages per fault).
pub const DEFAULT_PROGRAM_LOOKAHEAD: usize = 8;

/// A prefetcher that follows a pre-supplied access program (3PO-style).
///
/// # Examples
///
/// ```
/// use leap_prefetcher::{PageAddr, Prefetcher, ProgrammedPrefetcher};
///
/// // The profiled run told us the pages will be touched in this order.
/// let program = vec![10, 20, 30, 40, 50].into_iter().map(PageAddr).collect();
/// let mut oracle = ProgrammedPrefetcher::new(program, 2);
/// let decision = oracle.on_fault(PageAddr(20));
/// assert_eq!(decision.pages(), &[PageAddr(30), PageAddr(40)]);
/// ```
#[derive(Debug, Clone)]
pub struct ProgrammedPrefetcher {
    program: Vec<PageAddr>,
    /// First occurrence of each page in the program, for O(1) resync when a
    /// fault does not match the expected next position.
    first_occurrence: HashMap<PageAddr, usize>,
    cursor: usize,
    lookahead: usize,
}

impl ProgrammedPrefetcher {
    /// Creates a programmed prefetcher from the future page sequence and a
    /// per-fault lookahead.
    pub fn new(program: Vec<PageAddr>, lookahead: usize) -> Self {
        let mut first_occurrence = HashMap::with_capacity(program.len());
        for (i, addr) in program.iter().enumerate() {
            first_occurrence.entry(*addr).or_insert(i);
        }
        ProgrammedPrefetcher {
            program,
            first_occurrence,
            cursor: 0,
            lookahead: lookahead.max(1),
        }
    }

    /// Creates a programmed prefetcher from a raw page sequence.
    pub fn from_pages(pages: &[u64], lookahead: usize) -> Self {
        ProgrammedPrefetcher::new(pages.iter().map(|&p| PageAddr(p)).collect(), lookahead)
    }

    /// Positions the cursor just past the program entry matching `addr`,
    /// scanning forward from the current cursor first (the common case for a
    /// faithful program) and falling back to the first occurrence.
    fn sync_to(&mut self, addr: PageAddr) -> bool {
        // Fast path: the fault is within the next few program steps (pages
        // between them were prefetched and therefore never fault).
        const NEAR_SCAN: usize = 64;
        let near_end = self
            .cursor
            .saturating_add(NEAR_SCAN)
            .min(self.program.len());
        if let Some(offset) = self.program[self.cursor..near_end]
            .iter()
            .position(|&p| p == addr)
        {
            self.cursor += offset + 1;
            return true;
        }
        match self.first_occurrence.get(&addr) {
            Some(&i) => {
                self.cursor = i + 1;
                true
            }
            None => false,
        }
    }
}

impl Prefetcher for ProgrammedPrefetcher {
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision {
        if !self.sync_to(addr) {
            // The page is not in the program at all: the profile missed it.
            return PrefetchDecision::none();
        }
        let mut candidates = PrefetchDecision::none();
        for &upcoming in &self.program[self.cursor.min(self.program.len())..] {
            if upcoming == addr || candidates.contains(upcoming) {
                continue;
            }
            candidates.push(upcoming);
            if candidates.len() >= self.lookahead {
                break;
            }
        }
        candidates
    }

    fn on_prefetch_hit(&mut self, _addr: PageAddr) {}

    fn name(&self) -> &'static str {
        "Programmed-3PO"
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(pages: &[u64]) -> Vec<PageAddr> {
        pages.iter().map(|&p| PageAddr(p)).collect()
    }

    #[test]
    fn follows_the_program_exactly() {
        let mut p = ProgrammedPrefetcher::new(program(&[1, 2, 3, 4, 5, 6]), 3);
        let d = p.on_fault(PageAddr(1));
        assert_eq!(d.pages(), program(&[2, 3, 4]).as_slice());
        assert!(!d.speculative);
        // Pages 2–4 were prefetched, so the next fault is 5.
        let d = p.on_fault(PageAddr(5));
        assert_eq!(d.pages(), program(&[6]).as_slice());
    }

    #[test]
    fn handles_arbitrary_irregular_programs() {
        // A pattern no history-based prefetcher can learn.
        let pages = [907, 3, 511, 90, 1, 44, 620, 7, 88, 2];
        let mut p = ProgrammedPrefetcher::from_pages(&pages, 4);
        let d = p.on_fault(PageAddr(907));
        assert_eq!(d.pages(), program(&[3, 511, 90, 1]).as_slice());
    }

    #[test]
    fn resyncs_after_divergence() {
        let mut p = ProgrammedPrefetcher::new(program(&(0..200).collect::<Vec<_>>()), 2);
        let _ = p.on_fault(PageAddr(0));
        // The execution jumps far from the program position.
        let d = p.on_fault(PageAddr(150));
        assert_eq!(d.pages(), program(&[151, 152]).as_slice());
    }

    #[test]
    fn unknown_pages_prefetch_nothing() {
        let mut p = ProgrammedPrefetcher::new(program(&[1, 2, 3]), 2);
        assert!(p.on_fault(PageAddr(99)).is_empty());
    }

    #[test]
    fn duplicate_upcoming_pages_are_deduplicated() {
        let mut p = ProgrammedPrefetcher::new(program(&[1, 2, 2, 2, 3, 4]), 3);
        let d = p.on_fault(PageAddr(1));
        assert_eq!(d.pages(), program(&[2, 3, 4]).as_slice());
    }

    #[test]
    fn reset_rewinds_the_program() {
        let mut p = ProgrammedPrefetcher::new(program(&[1, 2, 3]), 2);
        let _ = p.on_fault(PageAddr(3));
        p.reset();
        let d = p.on_fault(PageAddr(1));
        assert_eq!(d.pages(), program(&[2, 3]).as_slice());
    }

    #[test]
    fn name_is_open_world() {
        assert_eq!(
            ProgrammedPrefetcher::new(Vec::new(), 1).name(),
            "Programmed-3PO"
        );
    }
}
