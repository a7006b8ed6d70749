//! A monotonically advancing simulation clock.

use crate::time::Nanos;

/// The simulated clock shared by a single experiment run.
///
/// The clock only moves forward. Components charge time to it by calling
/// [`SimClock::advance`] with the latency they modelled; readers observe the
/// current instant with [`SimClock::now`].
///
/// # Examples
///
/// ```
/// use leap_sim_core::{Nanos, SimClock};
///
/// let mut clock = SimClock::new();
/// clock.advance(Nanos::from_micros(4));
/// assert_eq!(clock.now(), Nanos::from_micros(4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Nanos,
}

impl SimClock {
    /// Creates a clock at t = 0.
    pub fn new() -> Self {
        SimClock { now: Nanos::ZERO }
    }

    /// Creates a clock starting at an arbitrary instant.
    pub fn starting_at(start: Nanos) -> Self {
        SimClock { now: start }
    }

    /// Returns the current simulated instant.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances the clock by `delta` and returns the new instant.
    pub fn advance(&mut self, delta: Nanos) -> Nanos {
        self.now = self.now.saturating_add(delta);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), Nanos::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let mut clock = SimClock::new();
        clock.advance(Nanos::from_micros(3));
        clock.advance(Nanos::from_micros(7));
        assert_eq!(clock.now(), Nanos::from_micros(10));
    }
}
