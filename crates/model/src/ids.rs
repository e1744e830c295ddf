//! Typed, dense identifiers for the model's objects.
//!
//! Every id is a newtype over `u32` whose value is a dense index into the
//! owning [`crate::Trace`]'s declaration table, so ids double as array
//! indices throughout the workspace (the relation matrices in
//! `eo-relations` are indexed by `EventId::index()` directly).

macro_rules! dense_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Constructs the id from a dense index.
            ///
            /// # Panics
            /// Panics if `i` does not fit in `u32`.
            #[inline]
            pub fn new(i: usize) -> Self {
                $name(u32::try_from(i).expect("id overflows u32"))
            }

            /// The dense index this id stands for.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

dense_id!(
    /// Identifies an [`crate::Event`]; the value is the event's position in
    /// the observed total order of its [`crate::Trace`].
    EventId,
    "e"
);

dense_id!(
    /// Identifies a process (a sequential thread of control).
    ProcessId,
    "proc"
);

dense_id!(
    /// Identifies a counting semaphore.
    SemId,
    "sem"
);

dense_id!(
    /// Identifies an event variable (Post/Wait/Clear style).
    EvVarId,
    "ev"
);

dense_id!(
    /// Identifies a shared variable.
    VarId,
    "var"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        let e = EventId::new(7);
        assert_eq!(e.index(), 7);
        assert_eq!(e, EventId(7));
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(EventId::new(3).to_string(), "e3");
        assert_eq!(ProcessId::new(0).to_string(), "proc0");
        assert_eq!(SemId::new(1).to_string(), "sem1");
        assert_eq!(EvVarId::new(2).to_string(), "ev2");
        assert_eq!(VarId::new(4).to_string(), "var4");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(EventId::new(1) < EventId::new(2));
    }

    #[test]
    fn json_form_is_transparent() {
        // Ids serialize as bare numbers in the trace format (see
        // `Trace::to_json`).
        use eo_obs::json::{parse, Value};
        assert_eq!(Value::Int(i64::from(EventId::new(5).0)).to_json(), "5");
        assert_eq!(
            parse("5").unwrap(),
            Value::Int(i64::from(EventId::new(5).0))
        );
    }
}
