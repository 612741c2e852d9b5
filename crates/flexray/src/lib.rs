//! The FlexRay bus timing model the CoEfficient evaluation runs on.
//!
//! The paper evaluates its scheduler on a 10-node FlexRay testbed; this
//! crate is the simulated equivalent, faithful at the level the
//! evaluation observes: cycle/slot/minislot timing, dual channels, the
//! on-wire length of coded frames, TDMA arbitration in the static
//! segment, FTDMA (minislot) arbitration in the dynamic segment, and
//! BER-driven transient fault injection. Running time, utilization,
//! latency and miss ratio depend only on when frames occupy the bus, so
//! the controller-side protocol machinery (POC, startup, clock
//! synchronization, CRCs) is not modelled; a scheduler that needs
//! controller buffering models it itself (FSPEC's CHI depth in the
//! `coefficient` crate).
//!
//! Module map:
//!
//! * [`config`] — cluster-wide protocol constants (`gdCycle`,
//!   `gdStaticSlot`, `gNumberOfStaticSlots`, `gdMinislot`, `pLatestTx`, …)
//!   with validation and derived timing;
//! * [`codec`] — the physical bit coding that determines how long a frame
//!   occupies the wire;
//! * [`signal`] — ECU signals (§II-A);
//! * [`schedule`] — the [`MessageId`](schedule::MessageId) shared by the
//!   engine and the schedulers;
//! * [`bus`] — the cycle-level dual-channel bus engine with fault
//!   injection, health monitoring and tracing.
//!
//! # Example
//!
//! ```
//! use flexray::config::ClusterConfig;
//! let cfg = ClusterConfig::builder()
//!     .macroticks_per_cycle(5000)
//!     .static_slots(80, 40)
//!     .minislots(120, 2)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.cycle_duration().as_micros(), 5000);
//! assert_eq!(cfg.static_segment_duration().as_micros(), 3200);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod codec;
pub mod config;
pub mod schedule;
pub mod signal;

mod channel;
mod error;

pub use channel::ChannelId;
pub use error::ConfigError;
