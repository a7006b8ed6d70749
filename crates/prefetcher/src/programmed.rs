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
use leap_workloads::AccessTrace;
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
    faults: u64,
    resyncs: u64,
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
            faults: 0,
            resyncs: 0,
        }
    }

    /// Creates a programmed prefetcher from a raw page sequence.
    pub fn from_pages(pages: &[u64], lookahead: usize) -> Self {
        ProgrammedPrefetcher::new(pages.iter().map(|&p| PageAddr(p)).collect(), lookahead)
    }

    /// Compiles a recorded run into a 3PO-style prefetch-ahead schedule.
    ///
    /// This is the offline half of the record → compile → replay loop: a
    /// profiling replay records an [`AccessTrace`] (e.g. through
    /// `TraceRecorder` or log ingestion), and this constructor turns it into
    /// the prefetch program a later run follows, issuing the next `lead`
    /// distinct pages ahead of each fault. Compilation collapses consecutive
    /// repeat accesses — a re-touch of the page the program just reached is
    /// resident by construction and can never fault, so keeping it would
    /// only burn lookahead slots.
    ///
    /// # Examples
    ///
    /// ```
    /// use leap_prefetcher::{PageAddr, Prefetcher, ProgrammedPrefetcher};
    /// use leap_sim_core::Nanos;
    /// use leap_workloads::{Access, AccessTrace};
    ///
    /// let recorded = AccessTrace::new(
    ///     "profile",
    ///     [9, 9, 5, 17, 2].map(|p| Access::read(p, Nanos::ZERO)).to_vec(),
    /// );
    /// let mut compiled = ProgrammedPrefetcher::compile_from_trace(&recorded, 3);
    /// let d = compiled.on_fault(PageAddr(9));
    /// assert_eq!(d.pages(), &[PageAddr(5), PageAddr(17), PageAddr(2)]);
    /// ```
    pub fn compile_from_trace(trace: &AccessTrace, lead: usize) -> Self {
        let mut program: Vec<PageAddr> = Vec::with_capacity(trace.len());
        for access in trace.iter() {
            let page = PageAddr(access.page);
            if program.last() != Some(&page) {
                program.push(page);
            }
        }
        ProgrammedPrefetcher::new(program, lead)
    }

    /// The configured lookahead.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// `(faults seen, faults that needed a resync)` — a resync means the
    /// execution diverged from the program (an imperfect profile).
    pub fn divergence(&self) -> (u64, u64) {
        (self.faults, self.resyncs)
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
        self.resyncs += 1;
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
        self.faults += 1;
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
        self.faults = 0;
        self.resyncs = 0;
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
        assert_eq!(p.divergence(), (2, 0));
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
        assert_eq!(p.divergence(), (2, 1));
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
    fn compile_collapses_consecutive_repeats_only() {
        use leap_sim_core::Nanos;
        use leap_workloads::{Access, AccessTrace};
        let recorded = AccessTrace::new(
            "profile",
            [1, 1, 1, 2, 3, 2, 2, 1]
                .map(|p| Access::read(p, Nanos::ZERO))
                .to_vec(),
        );
        let mut compiled = ProgrammedPrefetcher::compile_from_trace(&recorded, 4);
        // Non-adjacent revisits survive compilation (they can fault again
        // after an eviction); back-to-back repeats are collapsed and the
        // faulting page itself is never a candidate.
        let d = compiled.on_fault(PageAddr(1));
        assert_eq!(d.pages(), program(&[2, 3]).as_slice());
        // The surviving revisit of page 2 leads the next fault there.
        let d = compiled.on_fault(PageAddr(3));
        assert_eq!(d.pages(), program(&[2, 1]).as_slice());
    }

    #[test]
    fn compiled_schedule_covers_its_own_source_trace() {
        use leap_sim_core::Nanos;
        use leap_workloads::{Access, AccessTrace};
        // An irregular but repeatable sequence: the compiled program must
        // lead every fault after the first.
        let pages: Vec<u64> = (0..500u64).map(|i| (i * 37) % 251).collect();
        let recorded = AccessTrace::new(
            "profile",
            pages
                .iter()
                .map(|&p| Access::read(p, Nanos::ZERO))
                .collect(),
        );
        let mut compiled = ProgrammedPrefetcher::compile_from_trace(&recorded, 4);
        let mut predicted: std::collections::HashSet<PageAddr> = std::collections::HashSet::new();
        let mut led = 0usize;
        for &page in &pages {
            let addr = PageAddr(page);
            if predicted.contains(&addr) {
                led += 1;
            }
            for &p in compiled.on_fault(addr).pages() {
                predicted.insert(p);
            }
        }
        assert!(
            led as f64 / pages.len() as f64 > 0.9,
            "compiled program led only {led}/{} accesses",
            pages.len()
        );
    }

    #[test]
    fn name_is_open_world() {
        assert_eq!(
            ProgrammedPrefetcher::new(Vec::new(), 1).name(),
            "Programmed-3PO"
        );
    }
}
