//! The supervisor's shared resource budget.
//!
//! Theorems 1–4 say the exact analyses are NP-/co-NP-hard, so a production
//! engine must *expect* blow-ups. [`Budget`] is the one object threaded
//! through every exponential loop in this crate — the cut-lattice
//! explorer, class enumeration, witness queries, and the SAT backend — so
//! that any analysis can be stopped mid-flight:
//!
//! * a **wall-clock deadline** ([`Budget::with_deadline`]);
//! * **state / schedule caps** (a budget cap overrides the engine's
//!   defaults, see
//!   [`EngineOptions::effective_budget`](crate::EngineOptions::effective_budget));
//! * an approximate **heap-bytes cap** checked against the running storage
//!   estimate each explorer maintains;
//! * a **cooperative cancel flag** ([`Budget::cancel_handle`]) another
//!   thread can raise at any time.
//!
//! Checks happen at node-expansion / DFS-step granularity via
//! [`Budget::check`], which returns the [`EngineError`] describing the
//! first exhausted resource. Cloning a `Budget` shares the cancel flag and
//! the checkpoint counter (they are `Arc`ed), so every holder of a clone
//! observes one budget, not a private copy.
//!
//! Under the `fault-injection` feature a `FaultPlan` can be attached to
//! make the N-th checkpoint fail deterministically — see
//! `crate::faultpoint`.

use crate::engine::EngineError;
#[cfg(feature = "fault-injection")]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use crate::faultpoint::{Fault, FaultPlan};

/// A shared, cooperative resource budget for one analysis. See the
/// [module docs](self) for the full story.
#[derive(Clone, Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    /// The configured deadline duration in milliseconds, kept for error
    /// reporting.
    deadline_ms: u64,
    max_states: Option<usize>,
    max_schedules: Option<usize>,
    max_heap_bytes: Option<usize>,
    cancel: Arc<AtomicBool>,
    /// Checkpoint counter (shared across clones so fault injection sees
    /// one global checkpoint sequence).
    #[cfg(feature = "fault-injection")]
    ticks: Arc<AtomicU64>,
    #[cfg(feature = "fault-injection")]
    fault: Option<FaultPlan>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no constraints: every check passes (unless the shared
    /// cancel flag is raised).
    pub fn unlimited() -> Budget {
        Budget {
            deadline: None,
            deadline_ms: 0,
            max_states: None,
            max_schedules: None,
            max_heap_bytes: None,
            cancel: Arc::new(AtomicBool::new(false)),
            #[cfg(feature = "fault-injection")]
            ticks: Arc::new(AtomicU64::new(0)),
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    /// Sets a wall-clock deadline `d` from now.
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        self.deadline = Some(Instant::now() + d);
        self.deadline_ms = d.as_millis() as u64;
        self
    }

    /// Sets a wall-clock deadline `ms` milliseconds from now.
    pub fn with_deadline_ms(self, ms: u64) -> Budget {
        self.with_deadline(Duration::from_millis(ms))
    }

    /// Caps distinct machine states (overrides the engine's default).
    pub fn with_max_states(mut self, max_states: usize) -> Budget {
        self.max_states = Some(max_states);
        self
    }

    /// Caps complete schedules the enumeration may record (overrides the
    /// engine's default).
    pub fn with_max_schedules(mut self, max_schedules: usize) -> Budget {
        self.max_schedules = Some(max_schedules);
        self
    }

    /// Caps the approximate heap bytes of analysis state storage.
    pub fn with_max_heap_bytes(mut self, bytes: usize) -> Budget {
        self.max_heap_bytes = Some(bytes);
        self
    }

    /// Attaches a deterministic fault plan (test-only feature); see
    /// [`crate::faultpoint`].
    #[cfg(feature = "fault-injection")]
    pub fn with_fault(mut self, plan: FaultPlan) -> Budget {
        self.fault = Some(plan);
        self
    }

    /// A handle other threads can use to cancel every analysis sharing
    /// this budget (clones share the flag).
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle(Arc::clone(&self.cancel))
    }

    /// A per-request renewal of this budget: the same resource caps
    /// (states, schedules, heap bytes) under a fresh unraised cancel flag
    /// and no deadline — callers arm a new deadline per request.
    ///
    /// An ordinary `clone` is the wrong tool for a server: clones share
    /// the cancel flag (cancelling one request would cancel every other
    /// request and, since the flag is sticky, every future one too) and
    /// keep the original's absolute deadline. `renewed` is what lets a
    /// long-lived service hold one operator-configured budget and mint an
    /// independent per-request budget from it without losing the caps.
    pub fn renewed(&self) -> Budget {
        Budget {
            deadline: None,
            deadline_ms: 0,
            max_states: self.max_states,
            max_schedules: self.max_schedules,
            max_heap_bytes: self.max_heap_bytes,
            cancel: Arc::new(AtomicBool::new(false)),
            #[cfg(feature = "fault-injection")]
            ticks: Arc::new(AtomicU64::new(0)),
            #[cfg(feature = "fault-injection")]
            fault: self.fault,
        }
    }

    /// Fills caps the budget leaves unset with the engine's defaults (a
    /// budget cap always wins).
    pub(crate) fn with_default_caps(mut self, max_states: usize, max_schedules: usize) -> Budget {
        self.max_states.get_or_insert(max_states);
        self.max_schedules.get_or_insert(max_schedules);
        self
    }

    /// The effective schedule cap (`usize::MAX` when uncapped).
    pub(crate) fn schedules_cap(&self) -> usize {
        self.max_schedules.unwrap_or(usize::MAX)
    }

    /// Errors iff growing the state store to `next_count` states would
    /// exceed the state cap.
    #[inline]
    pub(crate) fn check_states(&self, next_count: usize) -> Result<(), EngineError> {
        match self.max_states {
            Some(cap) if next_count > cap => Err(EngineError::StateSpaceExceeded { limit: cap }),
            _ => Ok(()),
        }
    }

    /// One checkpoint: errors with the first exhausted resource.
    /// `heap_bytes` is the caller's running estimate of its analysis
    /// storage (pass 0 when storage is not the concern).
    ///
    /// Called at node-expansion / DFS-step granularity by every exponential
    /// loop; when the budget is unconstrained this is one relaxed atomic
    /// load.
    #[inline]
    pub fn check(&self, heap_bytes: usize) -> Result<(), EngineError> {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault {
            let t = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
            match plan.fires_at(t) {
                Some(Fault::Deadline) => {
                    return Err(EngineError::DeadlineExceeded {
                        ms: self.deadline_ms,
                    })
                }
                Some(Fault::Memory) => {
                    return Err(EngineError::MemoryExceeded {
                        limit: self.max_heap_bytes.unwrap_or(0),
                    })
                }
                // Mimic an external cancel exactly: raise the shared flag,
                // then fall through to the normal cancel path.
                Some(Fault::Cancel) => self.cancel.store(true, Ordering::Relaxed),
                None => {}
            }
        }
        if self.cancel.load(Ordering::Relaxed) {
            return Err(EngineError::Cancelled);
        }
        if let Some(cap) = self.max_heap_bytes {
            if heap_bytes > cap {
                return Err(EngineError::MemoryExceeded { limit: cap });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(EngineError::DeadlineExceeded {
                    ms: self.deadline_ms,
                });
            }
        }
        Ok(())
    }

    /// Milliseconds left until the deadline (`None` when no deadline is
    /// set; 0 when it has already passed). Observability reads this as the
    /// `budget.headroom_ms` gauge at the end of a run.
    pub fn headroom_ms(&self) -> Option<u64> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
    }

    /// The configured state cap, if any.
    pub fn max_states(&self) -> Option<usize> {
        self.max_states
    }

    /// The configured heap-bytes cap, if any.
    pub fn max_heap_bytes(&self) -> Option<usize> {
        self.max_heap_bytes
    }
}

/// Cooperative cancellation handle for a [`Budget`] (cheap to clone; all
/// handles and budget clones share one flag).
#[derive(Clone, Debug)]
pub struct CancelHandle(Arc<AtomicBool>);

impl CancelHandle {
    /// Raises the cancel flag: the next checkpoint of every analysis
    /// sharing the budget fails with [`EngineError::Cancelled`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_passes() {
        let b = Budget::unlimited();
        for _ in 0..1000 {
            assert_eq!(b.check(usize::MAX / 2), Ok(()));
        }
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let b = Budget::unlimited();
        let clone = b.clone();
        let handle = b.cancel_handle();
        assert_eq!(clone.check(0), Ok(()));
        handle.cancel();
        assert!(handle.is_cancelled());
        assert_eq!(b.check(0), Err(EngineError::Cancelled));
        assert_eq!(clone.check(0), Err(EngineError::Cancelled));
    }

    #[test]
    fn heap_cap_trips_on_estimate() {
        let b = Budget::unlimited().with_max_heap_bytes(1024);
        assert_eq!(b.check(1024), Ok(()));
        assert_eq!(
            b.check(1025),
            Err(EngineError::MemoryExceeded { limit: 1024 })
        );
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.check(0), Err(EngineError::DeadlineExceeded { ms: 0 }));
    }

    #[test]
    fn renewed_keeps_caps_but_not_cancel_or_deadline() {
        let original = Budget::unlimited()
            .with_max_states(7)
            .with_max_schedules(11)
            .with_max_heap_bytes(1024);
        // Caps survive the renewal, and the flags are independent both
        // ways: cancelling a renewal leaves the original untouched...
        let renewed = original.renewed();
        assert_eq!(renewed.max_states(), Some(7));
        assert_eq!(renewed.schedules_cap(), 11);
        assert_eq!(renewed.max_heap_bytes(), Some(1024));
        renewed.cancel_handle().cancel();
        assert_eq!(renewed.check(0), Err(EngineError::Cancelled));
        assert_eq!(original.check(0), Ok(()));
        // ...and renewing a cancelled, deadline-expired budget starts
        // clean (fresh flag, no deadline) with the caps intact.
        original.cancel_handle().cancel();
        let expired = original.with_deadline(Duration::ZERO);
        assert!(expired.check(0).is_err());
        let fresh = expired.renewed();
        assert_eq!(fresh.check(0), Ok(()));
        assert_eq!(fresh.max_states(), Some(7));
        assert_eq!(fresh.headroom_ms(), None);
    }

    #[test]
    fn state_cap_counts_next_state() {
        let b = Budget::unlimited().with_max_states(3);
        assert_eq!(b.check_states(3), Ok(()));
        assert_eq!(
            b.check_states(4),
            Err(EngineError::StateSpaceExceeded { limit: 3 })
        );
        assert_eq!(Budget::unlimited().check_states(usize::MAX), Ok(()));
    }
}
