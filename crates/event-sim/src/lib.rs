//! Deterministic simulated time and seeded randomness.
//!
//! This crate is the foundation of the CoEfficient reproduction: the
//! FlexRay bus engine, the schedulers and the task simulator all keep
//! time and draw random numbers through it, so every run is exactly
//! reproducible:
//!
//! * time is an integer number of nanoseconds ([`SimTime`], [`SimDuration`]),
//!   so FlexRay macroticks (1 µs) and bit times (100 ns at 10 Mbit/s) are
//!   exact;
//! * all randomness is injected through seeded RNGs built by [`rng`].
//!
//! # Example
//!
//! ```
//! use event_sim::{SimDuration, SimTime};
//!
//! // One 5 ms FlexRay cycle of 1 µs macroticks.
//! let macrotick = SimDuration::from_micros(1);
//! let cycle = macrotick * 5000;
//! let third_cycle = SimTime::ZERO + cycle * 2;
//! assert_eq!(third_cycle, SimTime::from_millis(10));
//! assert_eq!(third_cycle.duration_since(SimTime::from_micros(2500)).as_micros(), 7500);
//! // 2268 bits at 10 Mbit/s occupy 226.8 µs.
//! assert_eq!(SimDuration::from_nanos(100) * 2268, SimDuration::from_nanos(226_800));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rng;
mod time;

pub use time::{SimDuration, SimTime};
