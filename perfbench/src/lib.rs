//! The simulator's end-to-end benchmark.
//!
//! Three seeded workloads ([`workloads`]) run through the public library
//! API. An untraced run reports host and simulated end-to-end metrics; a
//! traced run wraps every policy and backend in timers ([`wrap`]) and
//! splits host time across the simulator's layers ([`spans`]). The
//! `perfbench` binary drives both; see README.md for the metric and
//! workload definitions.

pub mod bench;
pub mod reference;
pub mod spans;
pub mod summary;
pub mod workloads;
pub mod wrap;
