//! Property tests on the sharding layer: collective-cost monotonicity for
//! every `Interconnect` implementation.

use proptest::prelude::*;

use neupims_core::interconnect::{interconnect_from_name, INTERCONNECT_NAMES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All-reduce cost is monotone non-decreasing in message size and in
    /// chip count, for every fabric; point-to-point is monotone in bytes.
    #[test]
    fn collective_cost_is_monotone(
        bytes_a in 0u64..(1 << 28),
        bytes_b in 0u64..(1 << 28),
        chips_a in 1u32..64,
        chips_b in 1u32..64,
        gbps in 1u64..512,
    ) {
        let (b_lo, b_hi) = (bytes_a.min(bytes_b), bytes_a.max(bytes_b));
        let (c_lo, c_hi) = (chips_a.min(chips_b), chips_a.max(chips_b));
        for name in INTERCONNECT_NAMES {
            for fabric in [
                interconnect_from_name(name, None).unwrap(),
                interconnect_from_name(name, Some(gbps as f64)).unwrap(),
            ] {
                prop_assert!(
                    fabric.all_reduce_cycles(b_lo, c_hi) <= fabric.all_reduce_cycles(b_hi, c_hi),
                    "{name}: all-reduce not monotone in bytes ({b_lo} vs {b_hi} @ {c_hi})"
                );
                prop_assert!(
                    fabric.all_reduce_cycles(b_hi, c_lo) <= fabric.all_reduce_cycles(b_hi, c_hi),
                    "{name}: all-reduce not monotone in chips ({c_lo} vs {c_hi} @ {b_hi})"
                );
                prop_assert!(
                    fabric.point_to_point_cycles(b_lo) <= fabric.point_to_point_cycles(b_hi),
                    "{name}: point-to-point not monotone in bytes"
                );
                // One chip or zero bytes means nothing to reduce.
                prop_assert_eq!(fabric.all_reduce_cycles(b_hi, 1), 0, "{}", name);
                prop_assert_eq!(fabric.all_reduce_cycles(0, c_hi), 0, "{}", name);
            }
        }
    }
}
