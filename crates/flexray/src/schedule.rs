//! Message identity shared by the bus engine and the schedulers.
//!
//! Which message occupies which `(slot, cycle, channel)` is decided by
//! the scheduler that drives the bus (the `coefficient` crate's static
//! allocation), which answers the engine's per-slot questions.

/// Identifier of a schedulable message, unique within a workload.
pub type MessageId = u32;
