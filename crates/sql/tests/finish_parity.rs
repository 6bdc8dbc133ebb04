//! Regression tests for result finishing: GROUP BY, HAVING, ORDER BY and
//! LIMIT, which both SELECT executors share.
//!
//! Every query runs through the columnar executor and the row-at-a-time
//! executor, which must agree (identical rows, or both failing). Because
//! they share one finisher, agreement alone cannot catch a finisher bug,
//! so each case is also checked against an answer computed here in
//! plain Rust from the generated rows, or against the same query
//! without its LIMIT (a full stable sort) cut to the limit.
//!
//! The cases pin what a bounded top-K must keep from full
//! materialization: ties fall to the earlier row, which for groups is
//! the smaller group key (NULL first); HAVING filters before the limit;
//! `LIMIT 0` and a limit past the row count behave; and an expression
//! that fails in a row or group that would *not* make the cut still
//! fails the statement. The top-K keeps references to its rows and
//! builds the winners' tuples after the scan, so the cases also drive
//! it where that matters: input in worst order (every row enters, most
//! are evicted), ties on the first key, NULL and NaN keys at the cut,
//! and groups, which it takes in first-seen order and ranks on ties by
//! their keys.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use sstore_common::{Column, DataType, Schema, Tuple, Value};
use sstore_sql::exec::run_select_rows_rowwise;
use sstore_sql::plan::BoundStatement;
use sstore_sql::vexec::{eligible, run_select_columnar, COLUMNAR_MIN_ROWS};
use sstore_sql::Planner;
use sstore_storage::{Catalog, TableKind};

const ROWS: i64 = 100;

/// One generated row of `t`.
struct Row {
    k: i64,
    g: Option<i64>,
    f: Option<f64>,
    s: &'static str,
}

fn gen_rows() -> Vec<Row> {
    (0..ROWS)
        .map(|k| Row {
            k,
            g: (k % 11 != 0).then_some(k % 7),
            f: (k % 13 != 0).then_some((k % 5) as f64 / 2.0),
            s: ["x", "y", "z"][(k % 3) as usize],
        })
        .collect()
}

fn setup() -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::nullable("g", DataType::Int),
        Column::nullable("f", DataType::Float),
        Column::new("s", DataType::Text),
    ])
    .unwrap();
    let t = c.create_table("t", TableKind::Base, schema).unwrap();
    for r in gen_rows() {
        t.insert(Tuple::new(vec![
            Value::Int(r.k),
            r.g.map_or(Value::Null, Value::Int),
            r.f.map_or(Value::Null, Value::Float),
            Value::Text(r.s.into()),
        ]))
        .unwrap();
    }
    assert!(t.len() >= COLUMNAR_MIN_ROWS);
    c
}

/// Runs `sql` through both executors, asserts they agree, and returns
/// the rows (`None` when both failed).
fn run(c: &Catalog, sql: &str) -> Option<Vec<Vec<Value>>> {
    let stmt = Planner::new(c).plan_sql(sql).unwrap();
    let BoundStatement::Select(s) = &stmt else { panic!("not a select: {sql}") };
    assert!(eligible(s), "must be columnar-eligible: {sql}");
    let columnar = run_select_columnar(c, s, &[]);
    let rowwise = run_select_rows_rowwise(c, s, &[]);
    match (columnar, rowwise) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "executors disagree on: {sql}");
            Some(a.into_iter().map(Tuple::into_values).collect())
        }
        (Err(_), Err(_)) => None,
        (a, b) => panic!("error disagreement on {sql}: columnar={a:?} rowwise={b:?}"),
    }
}

/// Adds table `n` (`i` = row number, `x` a float cycling through NULL,
/// NaNs, infinities, signed zeros and duplicates) for sort keys where
/// `cmp_total` differs from naive float order.
fn add_floats(c: &mut Catalog) -> Vec<(i64, Value)> {
    let xs = [
        Value::Null,
        Value::Float(f64::NAN),
        Value::Float(1.5),
        Value::Float(-0.0),
        Value::Float(f64::INFINITY),
        Value::Float(0.0),
        Value::Float(-f64::NAN),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(1.5),
    ];
    let schema = Schema::new(vec![Column::new("i", DataType::Int), Column::nullable("x", DataType::Float)]).unwrap();
    let n = c.create_table("n", TableKind::Base, schema).unwrap();
    let rows: Vec<(i64, Value)> = (0..ROWS).map(|i| (i, xs[(i * 5 % 9) as usize].clone())).collect();
    for (i, x) in &rows {
        n.insert(Tuple::new(vec![Value::Int(*i), x.clone()])).unwrap();
    }
    rows
}

fn ok(c: &Catalog, sql: &str) -> Vec<Vec<Value>> {
    run(c, sql).unwrap_or_else(|| panic!("statement failed: {sql}"))
}

fn fails(c: &Catalog, sql: &str) {
    assert!(run(c, sql).is_none(), "statement must fail: {sql}");
}

fn int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn float(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

/// `COUNT(*)` per `g`, ascending by key with NULL first (`None < Some`).
fn counts_by_g() -> BTreeMap<Option<i64>, i64> {
    let mut m = BTreeMap::new();
    for r in gen_rows() {
        *m.entry(r.g).or_insert(0) += 1;
    }
    m
}

/// Groups by descending count; equal counts keep ascending key order.
fn by_count_desc(m: &BTreeMap<Option<i64>, i64>) -> Vec<(Option<i64>, i64)> {
    let mut v: Vec<(Option<i64>, i64)> = m.iter().map(|(k, n)| (*k, *n)).collect();
    v.sort_by_key(|e| Reverse(e.1)); // stable
    v
}

#[test]
fn grouped_top_k_breaks_ties_by_ascending_group_key() {
    let c = setup();
    let expected = by_count_desc(&counts_by_g());
    // Several groups share a count, so the cut falls inside a tie.
    assert!(expected.windows(2).any(|w| w[0].1 == w[1].1));
    for k in [1usize, 3, 5] {
        let got = ok(&c, &format!("SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC LIMIT {k}"));
        let want: Vec<Vec<Value>> =
            expected.iter().take(k).map(|(g, n)| vec![int(*g), Value::Int(*n)]).collect();
        assert_eq!(got, want, "LIMIT {k}");
    }
}

#[test]
fn null_group_key_sorts_first_and_takes_part_in_ties() {
    let c = setup();
    let m = counts_by_g();
    assert!(m.contains_key(&None));
    // Without ORDER BY, groups come out in ascending key order.
    let got = ok(&c, "SELECT g, COUNT(*) FROM t GROUP BY g LIMIT 3");
    let want: Vec<Vec<Value>> = m.iter().take(3).map(|(g, n)| vec![int(*g), Value::Int(*n)]).collect();
    assert_eq!(got, want);
    assert_eq!(got[0][0], Value::Null);
    // ORDER BY the key itself, descending: NULL comes last.
    let got = ok(&c, "SELECT g FROM t GROUP BY g ORDER BY g DESC LIMIT 10");
    assert_eq!(got.last().unwrap()[0], Value::Null);
    assert_eq!(got.len(), m.len());
}

#[test]
fn having_filters_before_the_limit() {
    let c = setup();
    let m = counts_by_g();
    let cutoff = 14;
    let want: Vec<Vec<Value>> = by_count_desc(&m)
        .into_iter()
        .filter(|(_, n)| *n < cutoff)
        .take(2)
        .map(|(g, n)| vec![int(g), Value::Int(n)])
        .collect();
    assert_eq!(want.len(), 2);
    let got = ok(
        &c,
        &format!(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) < {cutoff} \
             ORDER BY n DESC LIMIT 2"
        ),
    );
    assert_eq!(got, want);
}

#[test]
fn limit_zero_and_limit_past_the_group_count() {
    let c = setup();
    let groups = counts_by_g().len();
    assert!(ok(&c, "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC LIMIT 0").is_empty());
    assert!(ok(&c, "SELECT g, COUNT(*) FROM t GROUP BY g LIMIT 0").is_empty());
    assert!(ok(&c, "SELECT k FROM t ORDER BY g LIMIT 0").is_empty());
    let all = ok(&c, "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC");
    assert_eq!(all.len(), groups);
    for k in [groups, groups + 1, 1000] {
        let got = ok(&c, &format!("SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC LIMIT {k}"));
        assert_eq!(got, all, "LIMIT {k}");
    }
}

#[test]
fn top_k_equals_the_full_sort_cut_to_the_limit() {
    let c = setup();
    let shapes = [
        // Ungrouped, heavy ties: ties fall to scan order.
        "SELECT k, g FROM t ORDER BY g DESC",
        "SELECT k, f, s FROM t ORDER BY s, f DESC",
        // Grouped by a Float key, a Text key, and two keys with NULLs.
        "SELECT f, COUNT(*) AS n, SUM(k) FROM t GROUP BY f ORDER BY n DESC",
        "SELECT s, MAX(g) AS m FROM t GROUP BY s ORDER BY m",
        "SELECT g, s, COUNT(*) AS n FROM t GROUP BY g, s ORDER BY n DESC, s DESC",
        // A computed sort key and a literal projection.
        "SELECT 'lit', g, MIN(k) FROM t GROUP BY g ORDER BY MIN(k) % 3, g DESC",
    ];
    for base in shapes {
        let all = ok(&c, base);
        for k in [0usize, 1, 2, 5, 17] {
            let got = ok(&c, &format!("{base} LIMIT {k}"));
            let want: Vec<Vec<Value>> = all.iter().take(k).cloned().collect();
            assert_eq!(got, want, "{base} LIMIT {k}");
        }
    }
}

#[test]
fn ungrouped_ties_fall_to_scan_order() {
    let c = setup();
    let mut want: Vec<(Option<i64>, i64)> = gen_rows().iter().map(|r| (r.g, r.k)).collect();
    // Descending g with NULL last; stable, so equal g keep ascending k.
    want.sort_by_key(|e| Reverse(e.0));
    let got = ok(&c, "SELECT g, k FROM t ORDER BY g DESC LIMIT 12");
    let want: Vec<Vec<Value>> = want.iter().take(12).map(|(g, k)| vec![int(*g), Value::Int(*k)]).collect();
    assert_eq!(got, want);
}

#[test]
fn failing_projection_outside_the_cut_still_fails() {
    let c = setup();
    // Only the group holding k = 99 divides by zero (g = 99 % 7 = 1);
    // it is never among the first rows kept.
    fails(&c, "SELECT g, 100 / (MAX(k) - 99) FROM t GROUP BY g ORDER BY g LIMIT 1");
    fails(&c, "SELECT g, 100 / (MAX(k) - 99) AS q FROM t GROUP BY g ORDER BY COUNT(*) DESC, g LIMIT 1");
    fails(&c, "SELECT g, 100 / (MAX(k) - 99) FROM t GROUP BY g LIMIT 1");
    fails(&c, "SELECT g, 100 / (MAX(k) - 99) FROM t GROUP BY g LIMIT 0");
    fails(&c, "SELECT g, 100 / (MAX(k) - 99) FROM t GROUP BY g ORDER BY g LIMIT 0");
    // HAVING that drops the failing group: the statement succeeds.
    let got = ok(
        &c,
        "SELECT g, 100 / (MAX(k) - 99) FROM t GROUP BY g HAVING MAX(k) < 99 ORDER BY g LIMIT 1",
    );
    assert_eq!(got.len(), 1);
    // Ungrouped: row k = 99 fails, and it is last in every order used.
    fails(&c, "SELECT k, 10 / (k - 99) FROM t ORDER BY k LIMIT 1");
    fails(&c, "SELECT k, 10 / (k - 99) FROM t LIMIT 1");
    fails(&c, "SELECT k, 10 / (k - 99) FROM t ORDER BY k LIMIT 0");
}

#[test]
fn failing_sort_key_outside_the_cut_still_fails() {
    let c = setup();
    fails(&c, "SELECT g FROM t GROUP BY g ORDER BY g, 1 / (MAX(k) - 99) LIMIT 1");
    fails(&c, "SELECT g FROM t GROUP BY g ORDER BY 1 / (MAX(k) - 99) LIMIT 0");
    fails(&c, "SELECT k FROM t ORDER BY k, 1 / (k - 99) LIMIT 1");
    fails(&c, "SELECT k FROM t ORDER BY 1 / (k - 99) LIMIT 0");
}

#[test]
fn every_row_enters_when_input_arrives_in_worst_order() {
    let c = setup();
    let rows = gen_rows();
    // `k` ascends with the scan, so under `k DESC` each row is a new best
    // and evicts the worst kept one.
    let got = ok(&c, "SELECT k, s FROM t ORDER BY k DESC LIMIT 4");
    let want: Vec<Vec<Value>> =
        rows.iter().rev().take(4).map(|r| vec![Value::Int(r.k), Value::Text(r.s.into())]).collect();
    assert_eq!(got, want);
    // Groups are first seen in ascending `k` too.
    let got = ok(&c, "SELECT k, COUNT(*), 'g' FROM t GROUP BY k ORDER BY k DESC LIMIT 3");
    let want: Vec<Vec<Value>> =
        (ROWS - 3..ROWS).rev().map(|k| vec![Value::Int(k), Value::Int(1), Value::Text("g".into())]).collect();
    assert_eq!(got, want);
    // Row and group k = 50 enter the top 3 and are evicted later: their
    // failing projection still fails the statement.
    fails(&c, "SELECT k, 10 / (k - 50) FROM t ORDER BY k DESC LIMIT 3");
    fails(&c, "SELECT k, 10 / (MAX(k) - 50) FROM t GROUP BY k ORDER BY k DESC LIMIT 3");
    // And rows that never enter fail it as well.
    fails(&c, "SELECT k, 10 / (k - 50) FROM t ORDER BY k LIMIT 3");
    fails(&c, "SELECT k, 10 / (MAX(k) - 50) FROM t GROUP BY k ORDER BY k LIMIT 3");
}

#[test]
fn first_key_ties_fall_to_the_second_key_then_to_arrival() {
    let c = setup();
    let rows = gen_rows();
    // `s` takes three values, so the first key ties on a third of the
    // rows; `f DESC` (NULL last) decides next, then scan order.
    let mut want: Vec<&Row> = rows.iter().collect();
    want.sort_by(|a, b| a.s.cmp(b.s).then_with(|| float(b.f).cmp_total(&float(a.f))));
    for k in [1usize, 2, 5, 12, 40] {
        let got = ok(&c, &format!("SELECT k, s, f FROM t ORDER BY s, f DESC LIMIT {k}"));
        let want: Vec<Vec<Value>> = want
            .iter()
            .take(k)
            .map(|r| vec![Value::Int(r.k), Value::Text(r.s.into()), float(r.f)])
            .collect();
        assert_eq!(got, want, "LIMIT {k}");
    }
    // One key only: ties fall to scan order.
    let got = ok(&c, "SELECT k FROM t ORDER BY s DESC LIMIT 5");
    let want: Vec<Vec<Value>> = rows.iter().filter(|r| r.s == "z").take(5).map(|r| vec![Value::Int(r.k)]).collect();
    assert_eq!(got, want);
}

#[test]
fn null_and_nan_sort_keys_at_the_cut() {
    let mut c = setup();
    let rows = add_floats(&mut c);
    for (dir, flip) in [("ASC", false), ("DESC", true)] {
        let mut want = rows.clone();
        // Stable, so ties keep scan order.
        want.sort_by(|a, b| {
            let o = a.1.cmp_total(&b.1);
            if flip {
                o.reverse()
            } else {
                o
            }
        });
        // Cuts that fall inside each run of equal keys, and between them.
        for k in [1usize, 5, 9, 10, 11, 19, 23, 30, 45, 60, 99, 100] {
            let got = ok(&c, &format!("SELECT i, x FROM n ORDER BY x {dir} LIMIT {k}"));
            let want: Vec<Vec<Value>> = want.iter().take(k).map(|(i, x)| vec![Value::Int(*i), x.clone()]).collect();
            assert_eq!(got.len(), want.len(), "x {dir} LIMIT {k}");
            for (g, w) in got.iter().zip(&want) {
                assert!(g[0] == w[0] && g[1].identical(&w[1]), "x {dir} LIMIT {k}: got {g:?}, want {w:?}");
            }
        }
    }
    // The same keys as groups (the two NaNs and the two zeros are four
    // groups): most counts tie, and ties fall to ascending key order.
    let all = ok(&c, "SELECT x, COUNT(*) AS m FROM n GROUP BY x ORDER BY m DESC");
    for k in [1usize, 2, 4, 7, 20] {
        let got = ok(&c, &format!("SELECT x, COUNT(*) AS m FROM n GROUP BY x ORDER BY m DESC LIMIT {k}"));
        assert_eq!(got, all.iter().take(k).cloned().collect::<Vec<_>>(), "LIMIT {k}");
    }
}

#[test]
fn limit_one_zero_and_past_the_row_count_without_groups() {
    let c = setup();
    for base in ["SELECT k, g FROM t ORDER BY g DESC", "SELECT s, k * 2 FROM t ORDER BY f, s DESC"] {
        let all = ok(&c, base);
        assert_eq!(all.len(), ROWS as usize);
        assert!(ok(&c, &format!("{base} LIMIT 0")).is_empty());
        assert_eq!(ok(&c, &format!("{base} LIMIT 1")), all[..1]);
        for k in [ROWS as usize, ROWS as usize + 1, 1000] {
            assert_eq!(ok(&c, &format!("{base} LIMIT {k}")), all, "{base} LIMIT {k}");
        }
    }
}

#[test]
fn grouped_ties_over_two_keys_fall_to_ascending_key_order() {
    let c = setup();
    // COUNT(*) per (g, s): keys ascend with NULL first, then text order.
    let mut m: BTreeMap<(Option<i64>, &str), i64> = BTreeMap::new();
    for r in gen_rows() {
        *m.entry((r.g, r.s)).or_insert(0) += 1;
    }
    let mut want: Vec<((Option<i64>, &str), i64)> = m.into_iter().collect();
    want.sort_by_key(|e| Reverse(e.1)); // stable: ties keep ascending key order
    assert!(want.windows(2).filter(|w| w[0].1 == w[1].1).count() > 5, "needs ties");
    for k in [1usize, 3, 6, 10, 25] {
        let got = ok(&c, &format!("SELECT g, s, COUNT(*) AS n FROM t GROUP BY g, s ORDER BY n DESC LIMIT {k}"));
        let want: Vec<Vec<Value>> = want
            .iter()
            .take(k)
            .map(|((g, s), n)| vec![int(*g), Value::Text((*s).into()), Value::Int(*n)])
            .collect();
        assert_eq!(got, want, "LIMIT {k}");
    }
    // Ties with the key in reverse: the group key still breaks them
    // ascending, after the sort keys.
    let all = ok(&c, "SELECT s, g, COUNT(*) AS n FROM t GROUP BY s, g ORDER BY n, s DESC");
    for k in [1usize, 4, 9] {
        let got = ok(&c, &format!("SELECT s, g, COUNT(*) AS n FROM t GROUP BY s, g ORDER BY n, s DESC LIMIT {k}"));
        assert_eq!(got, all[..k], "LIMIT {k}");
    }
}
