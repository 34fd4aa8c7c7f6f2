//! Piecewise-constant time schedules for driving experiments.

use capmaestro_units::Seconds;

/// A piecewise-constant schedule: a value that changes at specified times.
///
/// Used to script the controller experiments — e.g. Fig. 5 lowers PS2's
/// budget at t = 30 s and PS1's at t = 110 s.
///
/// # Examples
///
/// ```
/// use capmaestro_workload::Schedule;
/// use capmaestro_units::{Seconds, Watts};
///
/// let budget = Schedule::new(Watts::new(280.0))
///     .then_at(Seconds::new(30.0), Watts::new(200.0));
/// assert_eq!(budget.value_at(Seconds::new(10.0)), Watts::new(280.0));
/// assert_eq!(budget.value_at(Seconds::new(30.0)), Watts::new(200.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule<T> {
    initial: T,
    steps: Vec<(Seconds, T)>,
}

impl<T: Clone> Schedule<T> {
    /// A schedule holding `initial` from t = 0.
    pub fn new(initial: T) -> Self {
        Schedule {
            initial,
            steps: Vec::new(),
        }
    }

    /// Appends a step: from time `at` (inclusive) the schedule yields
    /// `value`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not strictly after the previous step's time.
    #[must_use]
    pub fn then_at(mut self, at: Seconds, value: T) -> Self {
        if let Some((prev, _)) = self.steps.last() {
            assert!(
                at > *prev,
                "schedule steps must be strictly increasing in time"
            );
        }
        self.steps.push((at, value));
        self
    }

    /// The value in effect at time `t`.
    pub fn value_at(&self, t: Seconds) -> T {
        let mut current = &self.initial;
        for (at, value) in &self.steps {
            if t >= *at {
                current = value;
            } else {
                break;
            }
        }
        current.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capmaestro_units::Watts;

    #[test]
    fn constant_schedule() {
        let s = Schedule::new(5u32);
        assert_eq!(s.value_at(Seconds::ZERO), 5);
        assert_eq!(s.value_at(Seconds::new(1e6)), 5);
    }

    #[test]
    fn fig5_style_budget_schedule() {
        let budget = Schedule::new(Watts::new(280.0))
            .then_at(Seconds::new(30.0), Watts::new(200.0))
            .then_at(Seconds::new(110.0), Watts::new(150.0));
        assert_eq!(budget.value_at(Seconds::new(0.0)), Watts::new(280.0));
        assert_eq!(budget.value_at(Seconds::new(29.9)), Watts::new(280.0));
        assert_eq!(budget.value_at(Seconds::new(30.0)), Watts::new(200.0));
        assert_eq!(budget.value_at(Seconds::new(109.0)), Watts::new(200.0));
        assert_eq!(budget.value_at(Seconds::new(200.0)), Watts::new(150.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_steps_panic() {
        let _ = Schedule::new(0u8)
            .then_at(Seconds::new(10.0), 1)
            .then_at(Seconds::new(5.0), 2);
    }
}
