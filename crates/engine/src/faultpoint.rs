//! Deterministic fault injection for the supervisor (test-only).
//!
//! Compiled only under the `fault-injection` feature. A [`FaultPlan`]
//! attached to a [`Budget`](crate::Budget) makes the N-th checkpoint fail
//! *as if* a real resource had run out — the same error values, raised at
//! a reproducible point — so every degradation path can be exercised
//! deterministically instead of by racing real clocks or real allocators.
//!
//! Every fault ([`Fault::Deadline`], [`Fault::Memory`], [`Fault::Cancel`])
//! trips inside [`Budget::check`](crate::Budget::check) and surfaces as
//! the matching [`EngineError`](crate::EngineError).
//!
//! Checkpoints count from 1; a plan trips at every checkpoint with index
//! `>= at`, so a fault once reached stays reached (the budget is
//! idempotently exhausted, exactly like a passed deadline).

/// What a [`FaultPlan`] injects once its checkpoint is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Report the wall-clock deadline as exceeded.
    Deadline,
    /// Report the heap-byte budget as exceeded.
    Memory,
    /// Behave as if the cancel flag had been raised externally.
    Cancel,
}

/// A deterministic fault: trip `fault` at the `at`-th checkpoint (1-based)
/// and at every checkpoint after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    at: u64,
    fault: Fault,
}

impl FaultPlan {
    /// Plan that trips `fault` from checkpoint `at` (1-based) onward.
    ///
    /// # Panics
    /// Panics if `at == 0`; checkpoints count from 1.
    pub fn trip_at(at: u64, fault: Fault) -> FaultPlan {
        assert!(at >= 1, "checkpoints are 1-based");
        FaultPlan { at, fault }
    }

    /// The fault to raise at checkpoint `tick`, if the plan has tripped.
    #[inline]
    pub fn fires_at(&self, tick: u64) -> Option<Fault> {
        (tick >= self.at).then_some(self.fault)
    }

    /// The injected fault kind.
    pub fn fault(&self) -> Fault {
        self.fault
    }
}
