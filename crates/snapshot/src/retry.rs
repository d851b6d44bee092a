//! Bounded retry with deterministic backoff for the auto-checkpoint path.
//!
//! Checkpoint writes ride along a live simulation; a transiently failing disk
//! must degrade the run (skip this checkpoint, try again next window) rather
//! than abort it. The backoff schedule is purely deterministic — derived from
//! the attempt index, no wall clock, no RNG — so injecting checkpoint-write
//! faults through a `FaultPlan` leaves the simulation timeline byte-identical.

use crate::error::SnapshotError;

/// A bounded, deterministic retry schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum write attempts (>= 1).
    pub max_attempts: u32,
    /// Virtual backoff before attempt `n+1`, in nanoseconds, doubled per
    /// attempt: `base_backoff_nanos << n`.
    pub base_backoff_nanos: u64,
}

impl RetryPolicy {
    /// Default policy: 3 attempts, 1 ms base backoff.
    #[must_use]
    pub fn default_checkpoint() -> Self {
        RetryPolicy { max_attempts: 3, base_backoff_nanos: 1_000_000 }
    }

    /// The deterministic backoff that precedes attempt `attempt` (0-based;
    /// attempt 0 has no backoff).
    #[must_use]
    pub(crate) fn backoff_before(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            0
        } else {
            self.base_backoff_nanos.saturating_shl(attempt - 1)
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> Self {
        if shift >= 64 {
            u64::MAX
        } else {
            self.checked_shl(shift).unwrap_or(u64::MAX)
        }
    }
}

/// What a bounded-retry run of an operation produced.
#[derive(Debug)]
pub enum RetryOutcome<T> {
    /// The operation succeeded on attempt `attempts - 1`.
    Succeeded {
        /// The operation's result.
        value: T,
        /// Total attempts made (1-based).
        attempts: u32,
        /// Sum of deterministic backoff applied, in nanoseconds.
        total_backoff_nanos: u64,
    },
    /// Every attempt failed; the last error is reported.
    Exhausted {
        /// Total attempts made.
        attempts: u32,
        /// The final attempt's error.
        last_error: SnapshotError,
    },
}

/// Runs `op` up to `policy.max_attempts` times, accumulating deterministic
/// backoff between attempts. The attempt index is passed to `op` so fault
/// injectors can fail specific attempts reproducibly.
pub fn retry_with_backoff<T>(
    policy: RetryPolicy,
    mut op: impl FnMut(u32) -> Result<T, SnapshotError>,
) -> RetryOutcome<T> {
    let attempts = policy.max_attempts.max(1);
    let mut total_backoff = 0u64;
    let mut last_error = None;
    for attempt in 0..attempts {
        total_backoff = total_backoff.saturating_add(policy.backoff_before(attempt));
        match op(attempt) {
            Ok(value) => {
                return RetryOutcome::Succeeded {
                    value,
                    attempts: attempt + 1,
                    total_backoff_nanos: total_backoff,
                }
            }
            Err(e) => last_error = Some(e),
        }
    }
    RetryOutcome::Exhausted {
        attempts,
        last_error: last_error.unwrap_or(SnapshotError::Decode { context: "retry" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_first_try_without_backoff() {
        let out = retry_with_backoff(RetryPolicy::default_checkpoint(), |_| Ok(42));
        match out {
            RetryOutcome::Succeeded { value, attempts, total_backoff_nanos } => {
                assert_eq!(value, 42);
                assert_eq!(attempts, 1);
                assert_eq!(total_backoff_nanos, 0);
            }
            RetryOutcome::Exhausted { .. } => panic!("should succeed"),
        }
    }

    #[test]
    fn retries_then_succeeds_with_doubling_backoff() {
        let policy = RetryPolicy { max_attempts: 4, base_backoff_nanos: 100 };
        let out = retry_with_backoff(policy, |attempt| {
            if attempt < 2 {
                Err(SnapshotError::Io { op: "write temp", kind: std::io::ErrorKind::Other })
            } else {
                Ok("ok")
            }
        });
        match out {
            RetryOutcome::Succeeded { value, attempts, total_backoff_nanos } => {
                assert_eq!(value, "ok");
                assert_eq!(attempts, 3);
                assert_eq!(total_backoff_nanos, 100 + 200);
            }
            RetryOutcome::Exhausted { .. } => panic!("should succeed on third attempt"),
        }
    }

    #[test]
    fn exhaustion_reports_last_error() {
        let policy = RetryPolicy { max_attempts: 2, base_backoff_nanos: 10 };
        let out: RetryOutcome<()> = retry_with_backoff(policy, |_| {
            Err(SnapshotError::Io { op: "rename", kind: std::io::ErrorKind::PermissionDenied })
        });
        match out {
            RetryOutcome::Exhausted { attempts, last_error } => {
                assert_eq!(attempts, 2);
                assert!(matches!(last_error, SnapshotError::Io { op: "rename", .. }));
            }
            RetryOutcome::Succeeded { .. } => panic!("should exhaust"),
        }
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let policy = RetryPolicy { max_attempts: 80, base_backoff_nanos: u64::MAX / 2 };
        assert_eq!(policy.backoff_before(70), u64::MAX);
    }
}
