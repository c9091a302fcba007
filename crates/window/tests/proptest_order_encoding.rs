//! The encoded ORDER BY keys of `window::order` against a reference written
//! directly on `Value::sql_cmp`: NULL placement, then `sql_cmp`, reversed
//! under DESC, ties by index. Covers every encodable type at its edges
//! (integer extremes next to NULLs, signed zeros, infinities, NaNs of both
//! signs, subnormals), the fallbacks (strings, a mixed Int/Float column,
//! sentinel collisions), two-criterion keys, all four ASC/DESC × NULLS
//! FIRST/LAST combinations, and partitions on both sides of the 4096-row
//! parallel sort cutoff.

use holistic_window::order::{dense_codes_for, peer_bounds, sort_permutation, KeyColumns, SortKey};
use holistic_window::{col, Column, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// One criterion of the reference: values per row plus its flags.
struct RefKey {
    vals: Vec<Value>,
    desc: bool,
    nulls_first: bool,
}

fn ref_cmp(keys: &[RefKey], a: usize, b: usize) -> Ordering {
    for k in keys {
        let (va, vb) = (&k.vals[a], &k.vals[b]);
        let ord = match (va.is_null(), vb.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) if k.nulls_first => Ordering::Less,
            (true, false) => Ordering::Greater,
            (false, true) if k.nulls_first => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) if k.desc => vb.sql_cmp(va),
            (false, false) => va.sql_cmp(vb),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Bit-faithful value identity (floats by bits, types must match).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Null, Value::Null) => true,
        (Value::Null, _) | (_, Value::Null) => false,
        _ => a.type_name() == b.type_name() && a.sql_cmp(b) == Ordering::Equal,
    }
}

const FLOAT_EDGES: [f64; 14] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    1.0,
    -1.0,
    0.5,
    -2.5,
];

/// NaN bit patterns of both signs, including the all-ones payloads whose
/// codes are the two NULL sentinels.
const NAN_BITS: [u64; 6] = [
    0x7FF8_0000_0000_0000,
    0x7FF0_0000_0000_0001,
    0x7FFF_FFFF_FFFF_FFFF,
    0xFFF8_0000_0000_0000,
    0xFFF0_0000_0000_0001,
    0xFFFF_FFFF_FFFF_FFFF,
];

/// Column profiles. `Mixed` holds Int keys followed by Float keys (see
/// [`build`]).
#[derive(Debug, Clone, Copy)]
enum Profile {
    SmallInt,
    IntExtremes,
    Float,
    Date,
    Bool,
    Str,
    Mixed,
}

const PROFILES: [Profile; 7] = [
    Profile::SmallInt,
    Profile::IntExtremes,
    Profile::Float,
    Profile::Date,
    Profile::Bool,
    Profile::Str,
    Profile::Mixed,
];

/// Draws a column of `n` rows as a table column plus the reference values.
/// The first row is never NULL, so the column takes the profile's type.
fn gen_column(rng: &mut StdRng, profile: Profile, n: usize, null_p: f64) -> (Column, Vec<Value>) {
    let mut vals: Vec<Value> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.gen_bool(null_p) {
            vals.push(Value::Null);
            continue;
        }
        vals.push(match profile {
            Profile::SmallInt | Profile::Mixed => Value::Int(rng.gen_range(-6i64..6)),
            Profile::IntExtremes => Value::Int(match rng.gen_range(0u32..6) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => i64::MIN + rng.gen_range(0i64..3),
                3 => i64::MAX - rng.gen_range(0i64..3),
                _ => rng.gen_range(-3i64..3),
            }),
            Profile::Float => Value::Float(match rng.gen_range(0u32..4) {
                0 => f64::from_bits(NAN_BITS[rng.gen_range(0..NAN_BITS.len())]),
                1 => rng.gen_range(-4i64..4) as f64 * 0.5,
                _ => FLOAT_EDGES[rng.gen_range(0..FLOAT_EDGES.len())],
            }),
            Profile::Date => Value::Date(rng.gen_range(-40i32..40)),
            Profile::Bool => Value::Bool(rng.gen_bool(0.5)),
            Profile::Str => Value::str(["", "a", "ab", "b", "ba"][rng.gen_range(0usize..5)]),
        });
    }
    let column = Column::from_values(&vals).expect("single-typed values");
    (column, vals)
}

/// Builds the table and the engine's key columns for one case, plus the
/// reference. A `Mixed` first criterion is evaluated on an Int column and
/// then extended from a Float one.
fn build(
    rng: &mut StdRng,
    n: usize,
    profiles: &[Profile],
    flags: &[(bool, bool)],
) -> (KeyColumns, Vec<RefKey>) {
    let null_p = [0.0, 0.1, 0.5][rng.gen_range(0usize..3)];
    let mut cols = Vec::new();
    let mut refs = Vec::new();
    for (i, (&p, &(desc, nulls_first))) in profiles.iter().zip(flags).enumerate() {
        let (c, vals) = gen_column(rng, p, n, null_p);
        cols.push((format!("k{i}"), c));
        refs.push(RefKey { vals, desc, nulls_first });
    }
    let sort_keys: Vec<SortKey> = flags
        .iter()
        .enumerate()
        .map(|(i, &(desc, nulls_first))| {
            let sk = if desc {
                SortKey::desc(col(format!("k{i}")))
            } else {
                SortKey::asc(col(format!("k{i}")))
            };
            sk.nulls_first(nulls_first)
        })
        .collect();
    let table = Table::new(cols).expect("equal lengths");
    if !matches!(profiles[0], Profile::Mixed) {
        return (KeyColumns::evaluate(&table, &sort_keys).expect("valid keys"), refs);
    }
    // Mixed: the key columns of the Int table are extended from a grown
    // table in which the column holds Floats — its first `n` rows are the
    // same numbers as floats, the rest are new. Tables are single-typed per
    // column, so this is the one way to put Int and Float keys side by side.
    let mut keys = KeyColumns::evaluate(&table, &sort_keys).expect("valid keys");
    let b = rng.gen_range(1..=n);
    let batch: Vec<Value> = (0..b)
        .map(|_| {
            if rng.gen_bool(null_p) {
                Value::Null
            } else {
                Value::Float(rng.gen_range(-12i64..12) as f64 * 0.5)
            }
        })
        .collect();
    let mut grown_cols = Vec::new();
    for (i, &p) in profiles.iter().enumerate() {
        if i == 0 {
            refs[0].vals.extend(batch.iter().cloned());
            let floats = refs[0].vals.iter().map(Value::as_f64).collect();
            grown_cols.push((format!("k{i}"), Column::floats_opt(floats)));
        } else {
            let (_, vals) = gen_column(rng, p, b, null_p);
            refs[i].vals.extend(vals);
            grown_cols.push((format!("k{i}"), Column::from_values(&refs[i].vals).expect("typed")));
        }
    }
    let grown = Table::new(grown_cols).expect("equal lengths");
    keys.extend(&grown, &sort_keys, n).expect("valid keys");
    (keys, refs)
}

/// Checks every public consumer of the key columns against the reference
/// over the partition `rows`.
fn check(keys: &KeyColumns, refs: &[RefKey], rows: &[usize], rng: &mut StdRng) {
    let total = refs[0].vals.len();

    // sort_permutation, serial and parallel.
    let mut expected = rows.to_vec();
    expected.sort_by(|&a, &b| ref_cmp(refs, a, b).then(a.cmp(&b)));
    for parallel in [false, true] {
        let mut got = rows.to_vec();
        sort_permutation(keys, &mut got, parallel);
        assert_eq!(got, expected, "sort_permutation (parallel = {parallel})");
    }

    // peer_bounds over the sorted partition: groups of reference equals.
    let (start, end) = peer_bounds(keys, &expected);
    let mut g = 0;
    while g < expected.len() {
        let mut e = g + 1;
        while e < expected.len() && ref_cmp(refs, expected[g], expected[e]) == Ordering::Equal {
            e += 1;
        }
        for p in g..e {
            assert_eq!((start[p], end[p]), (g, e), "peer_bounds at position {p}");
        }
        g = e;
    }

    // dense_codes_for over positions: perm sorted by key then position, tie
    // groups of reference equals, serial ≡ parallel.
    let mut perm: Vec<usize> = (0..rows.len()).collect();
    perm.sort_by(|&a, &b| ref_cmp(refs, rows[a], rows[b]).then(a.cmp(&b)));
    let serial = dense_codes_for(keys, rows, false);
    assert_eq!(serial, dense_codes_for(keys, rows, true), "dense_codes_for serial ≡ parallel");
    assert_eq!(serial.perm, perm, "dense_codes_for perm");
    let mut group = 0;
    for r in 0..perm.len() {
        if r > 0 && ref_cmp(refs, rows[perm[r - 1]], rows[perm[r]]) != Ordering::Equal {
            group += 1;
        }
        let pos = perm[r];
        assert_eq!(serial.code[pos], r);
        assert_eq!(serial.group_id[pos], group, "dense_codes_for group of position {pos}");
        assert!(serial.group_min[pos] <= r && r < serial.group_end[pos]);
    }
    assert_eq!(serial.num_groups, if perm.is_empty() { 0 } else { group + 1 });

    // cmp_rows / rows_equal on random pairs and on sorted neighbours.
    let mut pairs: Vec<(usize, usize)> = expected.windows(2).map(|w| (w[1], w[0])).collect();
    if total > 0 {
        pairs.extend((0..400).map(|_| (rng.gen_range(0..total), rng.gen_range(0..total))));
    }
    for (a, b) in pairs {
        let want = ref_cmp(refs, a, b);
        assert_eq!(keys.cmp_rows(a, b), want, "cmp_rows({a}, {b})");
        assert_eq!(keys.rows_equal(a, b), want == Ordering::Equal, "rows_equal({a}, {b})");
    }

    // single_key decodes the exact value for one criterion.
    for i in 0..total {
        match keys.single_key(i) {
            Some((v, desc)) => {
                assert_eq!(refs.len(), 1);
                assert_eq!(desc, refs[0].desc);
                assert!(
                    same_value(&v, &refs[0].vals[i]),
                    "single_key({i}): {v:?} vs {:?}",
                    refs[0].vals[i]
                );
            }
            None => assert_ne!(refs.len(), 1, "single_key must answer for one criterion"),
        }
    }
}

/// Runs one case: `size_class` 0 is small, 1 sits just around the parallel
/// sort cutoff.
fn run_case(seed: u64, size_class: u32, two_keys: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n =
        if size_class == 0 { rng.gen_range(0usize..160) } else { rng.gen_range(4000usize..4300) };
    let mut profiles = vec![PROFILES[rng.gen_range(0..PROFILES.len())]];
    if two_keys {
        // Mixed only makes sense as the first (appended) criterion.
        profiles.push(PROFILES[rng.gen_range(0..PROFILES.len() - 1)]);
    }
    let flags: Vec<(bool, bool)> =
        profiles.iter().map(|_| (rng.gen_bool(0.5), rng.gen_bool(0.5))).collect();
    // The Mixed profile extends a non-empty Int column.
    let n = if matches!(profiles[0], Profile::Mixed) { n.max(1) } else { n };
    let (keys, refs) = build(&mut rng, n, &profiles, &flags);
    let total = refs[0].vals.len();
    // The partition: a random subset of the table in random order.
    let mut rows: Vec<usize> = (0..total).filter(|_| rng.gen_bool(0.9)).collect();
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    check(&keys, &refs, &rows, &mut rng);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One criterion, small partitions: every profile × direction × NULL
    /// placement.
    #[test]
    fn encoded_keys_match_reference_single(seed in any::<u64>()) {
        run_case(seed, 0, false);
    }

    /// Two criteria, small partitions.
    #[test]
    fn encoded_keys_match_reference_two_keys(seed in any::<u64>()) {
        run_case(seed, 0, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partitions around the 4096-row parallel cutoff, serial ≡ parallel.
    #[test]
    fn encoded_keys_match_reference_at_parallel_cutoff(seed in any::<u64>(), two in any::<bool>()) {
        run_case(seed, 1, two);
    }
}

/// The sentinel collisions named in the module docs, pinned: `i64::MAX`
/// next to a NULL under NULLS LAST and `i64::MIN` under NULLS FIRST (ASC);
/// `i64::MIN` under DESC NULLS LAST; the all-ones NaNs.
#[test]
fn sentinel_collisions_fall_back_exactly() {
    let cases: Vec<(Vec<Value>, bool, bool)> = vec![
        (vec![Value::Int(i64::MAX), Value::Null, Value::Int(0)], false, false),
        (vec![Value::Null, Value::Int(i64::MIN), Value::Int(i64::MAX)], false, true),
        (vec![Value::Int(i64::MIN), Value::Null, Value::Int(1)], true, false),
        (vec![Value::Int(i64::MAX), Value::Int(7), Value::Null], true, true),
        (
            vec![Value::Float(f64::from_bits(NAN_BITS[2])), Value::Null, Value::Float(-0.0)],
            false,
            false,
        ),
        (
            vec![Value::Null, Value::Float(f64::from_bits(NAN_BITS[5])), Value::Float(0.0)],
            false,
            true,
        ),
    ];
    let mut rng = StdRng::seed_from_u64(7);
    for (vals, desc, nulls_first) in cases {
        let t = Table::new(vec![("k", Column::from_values(&vals).unwrap())]).unwrap();
        let sk = if desc { SortKey::desc(col("k")) } else { SortKey::asc(col("k")) };
        let keys = KeyColumns::evaluate(&t, &[sk.nulls_first(nulls_first)]).unwrap();
        let refs = [RefKey { vals, desc, nulls_first }];
        check(&keys, &refs, &[2, 0, 1], &mut rng);
    }
}
