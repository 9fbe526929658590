//! A fixed host-speed reference, timed next to every measured repeat.
//!
//! The host this benchmark runs on changes speed by tens of percent over
//! tens of seconds (a shared CPU), while user time stays equal to wall
//! time, so the slowdown is the processor's, not the scheduler's. Host
//! times are therefore reported *normalised*: each measurement is
//! bracketed by two runs of [`kernel`] (neighbouring measurements share
//! the run between them), a simulator-independent mix of hashing,
//! sorting, heap and allocation work, and its wall time is scaled by
//! `NOMINAL_S / kernel time`. The result reads as seconds on a host where
//! the kernel takes [`NOMINAL_S`]; a change to the simulator moves it, a
//! change of host speed does not. The kernel uses none of the
//! simulator's code, so no change to the simulator can move it.

use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// Kernel time that defines the reported second (about the kernel's
/// median on the 2-vCPU Xeon host the benchmark was defined on).
pub const NOMINAL_S: f64 = 0.1;

/// Runs the reference kernel once and returns its wall time.
///
/// Two halves, chosen because their speed tracked the workloads' own
/// best among several candidates (pure arithmetic tracked worst): a
/// cache-resident hash/sort/heap pass, repeated, and a churn of small
/// heap allocations kept in a hash map, as the simulator's queues and
/// records do.
pub fn kernel() -> Duration {
    let start = Instant::now();
    let mut acc = 0u64;
    for round in 0..10u64 {
        // xorshift64: a fixed key stream, identical on every run.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ round;
        let keys: Vec<u64> = (0..30_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            map.insert(k, i as u64);
        }
        for _ in 0..4 {
            for &k in &keys {
                acc = acc.wrapping_add(map.get(&k).copied().unwrap_or(0));
            }
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        acc ^= sorted[sorted.len() / 2];
        let mut heap: BinaryHeap<u64> = keys.into_iter().collect();
        while let Some(k) = heap.pop() {
            acc ^= k;
        }
    }
    for round in 0..40usize {
        let mut kept: HashMap<usize, Vec<u64>> = HashMap::new();
        for i in 0..20_000usize {
            let v = vec![i as u64; 1 + (i + round) % 24];
            if i % 3 == 0 {
                kept.insert(i, v);
            }
        }
        acc = acc.wrapping_add(kept.values().map(|v| v.len() as u64).sum::<u64>());
    }
    std::hint::black_box(acc);
    start.elapsed()
}

/// The factor that converts wall seconds into reference seconds, from the
/// kernel times bracketing a measurement.
pub fn factor(before: Duration, after: Duration) -> f64 {
    NOMINAL_S / ((before + after).as_secs_f64() / 2.0)
}
