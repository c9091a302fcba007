//! Property tests for the leveled forest's hint-seeded rank search:
//! `MstForest::select_from` must return the `j`-th smallest frame value
//! whatever the hint — below, above or between the values present, equal to
//! a value outside the frame, or absent — over forests whose runs differ
//! widely in length, frames with exclusion holes, and values up to the
//! largest encodable one (`u64::MAX - 1`).

use holistic_core::{Bracket, MstForest, MstParams, RangeSet};
use proptest::prelude::*;

/// Sparse values (gaps between them) plus both ends of the encodable domain.
fn value() -> impl Strategy<Value = u64> {
    (0u8..10, 0u64..25).prop_map(|(sel, x)| match sel {
        0 => 0,
        1 => u64::MAX - 1,
        _ => 10 + 4 * x,
    })
}

/// Batches of very different lengths: single rows next to long runs.
fn batches() -> impl Strategy<Value = Vec<Vec<u64>>> {
    let batch = (any::<bool>(), prop::collection::vec(value(), 30..160));
    prop::collection::vec(batch, 1..7).prop_map(|bs| {
        bs.into_iter()
            .map(|(short, mut b)| {
                if short {
                    b.truncate(b.len() % 4);
                }
                b
            })
            .collect()
    })
}

/// No hint, or one below, between, on, or above the values, or anywhere.
fn hint() -> impl Strategy<Value = Option<u64>> {
    (0u8..6, 0u64..130, any::<u64>()).prop_map(|(sel, small, big)| match sel {
        0 => None,
        1 => Some(u64::MAX),
        2 => Some(u64::MAX - 1),
        3 => Some(big),
        _ => Some(small),
    })
}

/// Raw material for a frame `[a, b)` minus up to two holes.
fn raw_frame() -> impl Strategy<Value = [usize; 6]> {
    let u = || any::<usize>();
    ((u(), u()), (u(), u(), u(), u())).prop_map(|((a, b), (c, d, e, f))| [a, b, c, d, e, f])
}

fn params() -> impl Strategy<Value = MstParams> {
    (2usize..=9, 1usize..=9, any::<bool>()).prop_map(|(f, k, cascading)| {
        let p = MstParams::new(f, k).serial();
        if cascading {
            p
        } else {
            p.no_cascading()
        }
    })
}

/// A frame `[a, b)` minus up to two holes.
fn frame(n: usize, raw: [usize; 6]) -> RangeSet {
    let m = n + 1;
    let (a, b) = (raw[0] % m, raw[1] % m);
    let holes = [(raw[2] % m, raw[3] % m), (raw[4] % m, raw[5] % m)];
    let holes = holes.map(|(x, y)| (x.min(y), x.max(y)));
    RangeSet::frame_minus_holes(a.min(b), a.max(b), &holes)
}

fn frame_values(vals: &[u64], ranges: &RangeSet) -> Vec<u64> {
    let mut xs: Vec<u64> = ranges.iter().flat_map(|(a, b)| vals[a..b].iter().copied()).collect();
    xs.sort_unstable();
    xs
}

fn brute_bracket(sorted: &[u64], t: u64) -> Bracket<u64> {
    let below = sorted.partition_point(|&v| v < t);
    Bracket {
        below,
        pred: below.checked_sub(1).map(|i| sorted[i]),
        succ: sorted.get(below).copied(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn select_from_matches_brute_force(
        batches in batches(),
        params in params(),
        frames in prop::collection::vec(raw_frame(), 1..6),
        hints in prop::collection::vec(hint(), 1..6),
    ) {
        let mut forest = MstForest::new(params);
        for b in &batches {
            forest.append(b);
        }
        let vals = forest.values().to_vec();
        for raw in frames {
            let ranges = frame(vals.len(), raw);
            let sorted = frame_values(&vals, &ranges);
            // Values present in the forest but outside this frame.
            let outside: Vec<u64> =
                vals.iter().copied().filter(|v| sorted.binary_search(v).is_err()).take(3).collect();
            let all_hints = hints.iter().copied().chain(outside.into_iter().map(Some));
            for h in all_hints {
                if let Some(t) = h {
                    prop_assert_eq!(forest.bracket(&ranges, t), brute_bracket(&sorted, t));
                }
                for j in 0..=sorted.len() {
                    prop_assert_eq!(
                        forest.select_from(&ranges, j, h),
                        sorted.get(j).copied(),
                        "j={} hint={:?} ranges={:?}", j, h, ranges
                    );
                }
            }
        }
    }
}
