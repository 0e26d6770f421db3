//! The run-loop contract.
//!
//! An [`Executor`] is "a machine that runs programs": anything that can be
//! advanced one unit of work at a time, asked whether it has finished, and
//! asked for a uniform [`RunOutcome`]. The BSP machine (unit = one
//! superstep), the network router (one synchronous routing step) and the
//! BSF machine (`bvl-workloads`, one iteration) implement it and run
//! through [`drive`]; the LogP machine runs its own elected-instant loop.

use bvl_model::{ModelError, Steps};

/// Uniform progress report shared by every [`Executor`].
///
/// Engines keep their richer, model-specific reports (`LogpReport`,
/// `RunReport`, `RouteOutcome`); `RunOutcome` is the common denominator a
/// generic driver can rely on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Virtual time reached (makespan so far).
    pub makespan: Steps,
    /// Messages delivered to their destinations so far.
    pub delivered: u64,
    /// Units of work executed (events / supersteps / routing steps).
    pub work: u64,
    /// Whether the run has fully completed.
    pub halted: bool,
}

/// A steppable machine with a uniform completion/report surface.
pub trait Executor {
    /// Advance one unit of work (an event, a superstep, a routing step).
    ///
    /// Returns `Ok(true)` if work was done, `Ok(false)` if the machine has
    /// quiesced (nothing left to execute — which is *not* the same as every
    /// program having halted; see [`Executor::halted`]).
    fn step(&mut self) -> Result<bool, ModelError>;

    /// Whether the run has fully completed.
    fn halted(&self) -> bool;

    /// The uniform report of progress so far (valid at any point).
    fn outcome(&self) -> RunOutcome;
}

/// Drive an executor to quiescence under a step budget.
///
/// The one run loop of the stepped engines: each one's `run` delegates
/// here, so budget semantics ([`ModelError::Timeout`] when the budget is
/// exhausted with work remaining) are identical across them.
pub fn drive<E: Executor + ?Sized>(exec: &mut E, budget: u64) -> Result<RunOutcome, ModelError> {
    let mut steps: u64 = 0;
    loop {
        if !exec.step()? {
            return Ok(exec.outcome());
        }
        steps += 1;
        if steps > budget {
            return Err(ModelError::Timeout { budget });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_model::Steps;

    struct Countdown {
        left: u64,
        done: u64,
    }

    impl Executor for Countdown {
        fn step(&mut self) -> Result<bool, ModelError> {
            if self.left == 0 {
                return Ok(false);
            }
            self.left -= 1;
            self.done += 1;
            Ok(true)
        }

        fn halted(&self) -> bool {
            self.left == 0
        }

        fn outcome(&self) -> RunOutcome {
            RunOutcome {
                makespan: Steps(self.done),
                delivered: 0,
                work: self.done,
                halted: self.halted(),
            }
        }
    }

    #[test]
    fn drives_to_quiescence() {
        let mut m = Countdown { left: 5, done: 0 };
        let out = drive(&mut m, 100).unwrap();
        assert_eq!(out.makespan, Steps(5));
        assert!(out.halted);
    }

    #[test]
    fn budget_exhaustion_is_timeout() {
        let mut m = Countdown { left: 50, done: 0 };
        let err = drive(&mut m, 10).unwrap_err();
        assert_eq!(err, ModelError::Timeout { budget: 10 });
    }

    #[test]
    fn budget_equal_to_work_succeeds() {
        let mut m = Countdown { left: 10, done: 0 };
        assert!(drive(&mut m, 10).is_ok());
    }
}
