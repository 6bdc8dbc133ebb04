//! Result finishing shared by both SELECT executors: grouping state,
//! per-group finishing (aggregate results, HAVING, projections, sort
//! key), and ORDER BY / LIMIT.
//!
//! The finisher allocates per *emitted* row, not per input row or per
//! group:
//!
//! * [`Groups`] interns group keys into dense slots and keeps the keys
//!   and accumulators in flat slot-major arrays (strides: number of
//!   group keys, number of aggregates). At the end the slot indices are
//!   sorted by key under [`Value::cmp_total`], so groups finish in
//!   ascending key order — the order an ordered map would give —
//!   whatever order they were first seen in. Like an ordered map, the
//!   *first-seen* key value represents its group (`Int(1)` then
//!   `Float(1.0)` keeps `Int(1)`): [`Value`]'s `Hash` is consistent with
//!   its `cmp_total`-based `Eq`, so the hash maps merge exactly the keys
//!   the order merges.
//! * [`Finisher`] evaluates each group's aggregate results, HAVING,
//!   projections and sort key into reused buffers, then offers the row
//!   to its sink.
//! * The top-K sink compares a borrowed sort key with its current worst
//!   entry first; only a row that enters the heap copies its key and
//!   builds its output [`Tuple`].
//!
//! Results do not depend on any of this: the same rows come out in the
//! same order (ties broken by arrival order, which for groups is
//! ascending key order), and a statement fails exactly when it would if
//! every row were materialized. Projections that can fail are evaluated
//! for every row or group that passes HAVING, kept or not; only
//! projections that cannot fail (literals, in-range column, aggregate
//! and parameter references) wait for the tuple build.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sstore_common::hash::FxHashMap;
use sstore_common::{Error, Result, Tuple, Value};

use crate::ast::SortOrder;
use crate::exec::AggAcc;
use crate::expr::{AggSpec, BoundExpr, EvalCtx};
use crate::plan::BoundSelect;

type OrderBy = [(BoundExpr, SortOrder)];

// ----------------------------------------------------------------------
// Grouping state
// ----------------------------------------------------------------------

/// Group-key interning map. The variant is chosen on first use and
/// never changes within a statement: the columnar executor picks `Int`
/// from the key kernel's output kind, which depends only on column
/// dtypes and statement constants (the `unreachable!`s enforce it).
enum KeyMap {
    Unset,
    /// Single Int-typed key: raw `i64` hashing, NULL key in its own
    /// slot.
    Int { map: FxHashMap<i64, usize>, null_slot: Option<usize> },
    /// Single key of any other kind.
    Single(FxHashMap<Value, usize>),
    /// Several group-by expressions.
    Multi(FxHashMap<Vec<Value>, usize>),
}

/// Per-slot storage for `w` group keys: slot `i` owns
/// `keys[i * w..][..w]` and `accs[i * aggs.len()..][..aggs.len()]`.
struct Slots<'s> {
    aggs: &'s [AggSpec],
    keys: Vec<Value>,
    accs: Vec<AggAcc>,
    len: usize,
}

impl Slots<'_> {
    fn push(&mut self, key: &[Value]) -> usize {
        self.keys.extend_from_slice(key);
        self.accs.extend(self.aggs.iter().map(AggAcc::new));
        self.len += 1;
        self.len - 1
    }
}

/// GROUP BY accumulation state for both executors. Aggregates
/// accumulate per slot in input-row order, so float sums and overflow
/// points do not depend on how keys were interned.
pub(crate) struct Groups<'s> {
    group_by: &'s [BoundExpr],
    map: KeyMap,
    slots: Slots<'s>,
}

impl<'s> Groups<'s> {
    pub(crate) fn new(s: &'s BoundSelect) -> Self {
        Groups {
            group_by: &s.group_by,
            map: KeyMap::Unset,
            slots: Slots { aggs: &s.aggs, keys: Vec::new(), accs: Vec::new(), len: 0 },
        }
    }

    /// Slot of a single Int-typed key (`None` = NULL), created on first
    /// sight.
    pub(crate) fn intern_int(&mut self, key: Option<i64>) -> usize {
        if matches!(self.map, KeyMap::Unset) {
            self.map = KeyMap::Int { map: FxHashMap::default(), null_slot: None };
        }
        let KeyMap::Int { map, null_slot } = &mut self.map else {
            unreachable!("group-key kind changed within a statement")
        };
        let slots = &mut self.slots;
        match key {
            None => *null_slot.get_or_insert_with(|| slots.push(&[Value::Null])),
            Some(k) => *map.entry(k).or_insert_with(|| slots.push(&[Value::Int(k)])),
        }
    }

    /// Slot of `key` (one value per group-by expression), created on
    /// first sight. The key is borrowed; it is copied only for a new
    /// group.
    pub(crate) fn intern(&mut self, key: &[Value]) -> usize {
        debug_assert_eq!(key.len(), self.group_by.len());
        if key.is_empty() {
            // Implicit aggregation: every row is in the one group.
            if self.slots.len == 0 {
                self.slots.push(&[]);
            }
            return 0;
        }
        if matches!(self.map, KeyMap::Unset) {
            self.map = if key.len() == 1 {
                KeyMap::Single(FxHashMap::default())
            } else {
                KeyMap::Multi(FxHashMap::default())
            };
        }
        match &mut self.map {
            KeyMap::Single(m) => {
                if let Some(&slot) = m.get(&key[0]) {
                    return slot;
                }
                let slot = self.slots.push(key);
                m.insert(key[0].clone(), slot);
                slot
            }
            KeyMap::Multi(m) => {
                if let Some(&slot) = m.get(key) {
                    return slot;
                }
                let slot = self.slots.push(key);
                m.insert(key.to_vec(), slot);
                slot
            }
            _ => unreachable!("group-key kind changed within a statement"),
        }
    }

    /// Accumulator `j` of `slot`.
    #[inline]
    pub(crate) fn acc(&mut self, slot: u32, j: usize) -> &mut AggAcc {
        &mut self.slots.accs[slot as usize * self.slots.aggs.len() + j]
    }

    /// Accumulates one input row into its group (the row executor's
    /// per-row feed). `probe` is a reused key buffer; a bare-column key
    /// is borrowed straight from the row instead.
    pub(crate) fn feed_row(&mut self, ctx: &EvalCtx<'_>, probe: &mut Vec<Value>) -> Result<()> {
        let slot = match self.group_by {
            [BoundExpr::Column(c)] => {
                let key = ctx
                    .row
                    .get(*c)
                    .ok_or_else(|| Error::Eval(format!("column index {c} out of range")))?;
                self.intern(std::slice::from_ref(key))
            }
            exprs => {
                probe.clear();
                for g in exprs {
                    probe.push(g.eval(ctx)?);
                }
                self.intern(probe)
            }
        };
        let aggs = self.slots.aggs;
        let accs = &mut self.slots.accs[slot * aggs.len()..][..aggs.len()];
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            acc.feed(spec, ctx)?;
        }
        Ok(())
    }

    /// Finishes every group through `fin` in ascending key order.
    /// Implicit aggregation over zero rows still yields one group.
    pub(crate) fn finish(mut self, fin: &mut Finisher<'_>, params: &[Value]) -> Result<()> {
        if self.group_by.is_empty() && self.slots.len == 0 {
            self.slots.push(&[]);
        }
        let (w, n) = (self.group_by.len(), self.slots.aggs.len());
        let keys = &self.slots.keys;
        let mut order: Vec<usize> = (0..self.slots.len).collect();
        // Interned keys are pairwise unequal, so the unstable sort is
        // deterministic.
        order.sort_unstable_by(|&a, &b| keys[a * w..][..w].cmp(&keys[b * w..][..w]));
        for slot in order {
            fin.group(&keys[slot * w..][..w], &mut self.slots.accs[slot * n..][..n], params)?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Finishing and ORDER BY / LIMIT
// ----------------------------------------------------------------------

/// Streams finished rows into ORDER BY / LIMIT. Feed it groups
/// ([`Finisher::group`]), input rows of a non-grouped query
/// ([`Finisher::project`]), or rows whose projections were evaluated
/// elsewhere ([`Finisher::offer`]); [`Finisher::finish`] returns the
/// statement's rows.
pub(crate) struct Finisher<'s> {
    s: &'s BoundSelect,
    sink: Sink<'s>,
    /// Reused buffers: sort key, output row, and a group's aggregate
    /// results.
    key: Vec<Value>,
    row: Vec<Value>,
    aggs: Vec<Value>,
}

impl<'s> Finisher<'s> {
    pub(crate) fn new(s: &'s BoundSelect) -> Self {
        let order = s.order_by.as_slice();
        let sink = if order.is_empty() {
            Sink::Stream { rows: Vec::new(), limit: s.limit.map_or(usize::MAX, |k| k as usize) }
        } else if let Some(k) = s.limit {
            Sink::TopK { order, k: k as usize, seq: 0, heap: BinaryHeap::new() }
        } else {
            Sink::Sort { order, rows: Vec::new() }
        };
        Finisher { s, sink, key: Vec::new(), row: Vec::new(), aggs: Vec::new() }
    }

    /// Finishes one group: aggregate results, HAVING, projections and
    /// sort key.
    pub(crate) fn group(&mut self, key: &[Value], accs: &mut [AggAcc], params: &[Value]) -> Result<()> {
        self.aggs.clear();
        self.aggs.extend(accs.iter_mut().zip(&self.s.aggs).map(|(acc, spec)| acc.finish_for(spec)));
        let ctx = EvalCtx { row: key, params, aggs: &self.aggs };
        if let Some(h) = &self.s.having {
            if !h.eval_predicate(&ctx)? {
                return Ok(());
            }
        }
        emit(self.s, &mut self.sink, &mut self.key, &mut self.row, &ctx)
    }

    /// Projects one input row of a non-grouped query.
    pub(crate) fn project(&mut self, ctx: &EvalCtx<'_>) -> Result<()> {
        emit(self.s, &mut self.sink, &mut self.key, &mut self.row, ctx)
    }

    /// Offers a row whose projections were already evaluated: `key` is
    /// its sort key, and `build` makes its tuple if the row is kept.
    pub(crate) fn offer(&mut self, key: &[Value], build: impl FnOnce() -> Result<Tuple>) -> Result<()> {
        self.sink.offer(key, build)
    }

    pub(crate) fn finish(self) -> Vec<Tuple> {
        match self.sink {
            Sink::Stream { rows, .. } => rows,
            Sink::Sort { order, mut rows } => {
                rows.sort_by(|(a, _), (b, _)| key_cmp(a, b, order));
                rows.into_iter().map(|(_, t)| t).collect()
            }
            Sink::TopK { heap, .. } => heap.into_sorted_vec().into_iter().map(|e| e.tuple).collect(),
        }
    }
}

/// True when evaluating `e` under `ctx` cannot fail, so it may wait
/// until the row is known to be kept.
fn cannot_fail(e: &BoundExpr, ctx: &EvalCtx<'_>) -> bool {
    match e {
        BoundExpr::Literal(_) => true,
        BoundExpr::Param(i) => *i < ctx.params.len(),
        BoundExpr::Column(i) => *i < ctx.row.len(),
        BoundExpr::AggRef(i) => *i < ctx.aggs.len(),
        _ => false,
    }
}

/// Evaluates one output row's projections and sort key, then offers
/// it. Projections that can fail are evaluated now, in order, into
/// `row` at their positions; the rest are filled in only if the sink
/// keeps the row, which then takes `row` as its tuple. So `row`
/// allocates once per kept row and never for a row the sink drops; it
/// is sized exactly because its buffer becomes the tuple's.
fn emit(
    s: &BoundSelect,
    sink: &mut Sink<'_>,
    key: &mut Vec<Value>,
    row: &mut Vec<Value>,
    ctx: &EvalCtx<'_>,
) -> Result<()> {
    row.clear();
    row.reserve_exact(s.projections.len());
    for p in &s.projections {
        row.push(if cannot_fail(p, ctx) { Value::Null } else { p.eval(ctx)? });
    }
    key.clear();
    for (e, _) in &s.order_by {
        key.push(e.eval(ctx)?);
    }
    sink.offer(key, || {
        for (v, p) in row.iter_mut().zip(&s.projections) {
            if cannot_fail(p, ctx) {
                *v = p.eval(ctx)?;
            }
        }
        Ok(Tuple::new(std::mem::take(row)))
    })
}

/// Where finished rows go.
enum Sink<'s> {
    /// No ORDER BY: rows in arrival order, the first `limit` kept.
    Stream { rows: Vec<Tuple>, limit: usize },
    /// ORDER BY without LIMIT: every row, stably sorted at the end.
    Sort { order: &'s OrderBy, rows: Vec<(Vec<Value>, Tuple)> },
    /// ORDER BY + LIMIT k: a bounded max-heap of the k smallest rows
    /// under (sort key, arrival sequence). O(n log k), and output-
    /// identical to the stable sort + truncate: the stable order *is*
    /// (key, arrival), so its first k rows are exactly these.
    TopK { order: &'s OrderBy, k: usize, seq: usize, heap: BinaryHeap<Entry<'s>> },
}

impl Sink<'_> {
    fn offer(&mut self, key: &[Value], build: impl FnOnce() -> Result<Tuple>) -> Result<()> {
        match self {
            Sink::Stream { rows, limit } => {
                if rows.len() < *limit {
                    rows.push(build()?);
                }
            }
            Sink::Sort { rows, .. } => rows.push((key.to_vec(), build()?)),
            Sink::TopK { order, k, seq, heap } => {
                let this = *seq;
                *seq += 1;
                if heap.len() < *k {
                    heap.push(Entry { key: key.to_vec(), seq: this, tuple: build()?, order });
                } else if let Some(mut worst) = heap.peek_mut() {
                    // The root is the worst of the best k. A tie loses:
                    // the root arrived earlier.
                    if key_cmp(key, &worst.key, order).is_lt() {
                        let tuple = build()?;
                        worst.key.clone_from_slice(key);
                        worst.seq = this;
                        worst.tuple = tuple;
                    } // dropping `worst` restores the heap order
                }
            }
        }
        Ok(())
    }
}

/// One ORDER BY key comparison under the per-key sort directions
/// ([`Value::cmp_total`], so NULLs and NaNs are totally ordered).
fn key_cmp(a: &[Value], b: &[Value], order: &OrderBy) -> Ordering {
    for ((va, vb), (_, dir)) in a.iter().zip(b).zip(order) {
        let ord = va.cmp_total(vb);
        let ord = match dir {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

struct Entry<'s> {
    key: Vec<Value>,
    seq: usize,
    tuple: Tuple,
    order: &'s OrderBy,
}

impl Ord for Entry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        key_cmp(&self.key, &other.key, self.order).then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for Entry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Entry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BoundStatement, Planner};
    use sstore_common::{DataType, Schema};
    use sstore_storage::{Catalog, TableKind};

    /// Feeds `rows` through the row executor's grouping and returns the
    /// finished rows. The rows bypass the table, so one key column can
    /// mix Int and Float values (the schema check would refuse that).
    fn group(sql: &str, rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let mut c = Catalog::new();
        c.create_table("t", TableKind::Base, Schema::of(&[("a", DataType::Float), ("b", DataType::Int)]))
            .unwrap();
        let BoundStatement::Select(s) = Planner::new(&c).plan_sql(sql).unwrap() else { unreachable!() };
        let mut groups = Groups::new(&s);
        let mut probe = Vec::new();
        for row in rows {
            groups.feed_row(&EvalCtx { row, params: &[], aggs: &[] }, &mut probe).unwrap();
        }
        let mut fin = Finisher::new(&s);
        groups.finish(&mut fin, &[]).unwrap();
        fin.finish().into_iter().map(Tuple::into_values).collect()
    }

    fn identical(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.identical(v)))
    }

    #[test]
    fn equal_int_and_float_keys_merge_under_the_first_seen_value() {
        let (i, f, n) = (Value::Int, Value::Float, Value::Null);
        let sql = "SELECT a, COUNT(*) FROM t GROUP BY a";
        let got = group(sql, &[vec![i(1), i(0)], vec![f(2.5), i(0)], vec![f(1.0), i(0)], vec![n.clone(), i(0)]]);
        let want = vec![vec![n.clone(), i(1)], vec![i(1), i(2)], vec![f(2.5), i(1)]];
        assert!(identical(&got, &want), "{got:?}");
        let got = group(sql, &[vec![f(1.0), i(0)], vec![i(1), i(0)]]);
        assert!(identical(&got, &[vec![f(1.0), i(2)]]), "{got:?}");
        // Two keys, and a sort key over the group key.
        let sql = "SELECT a, b, COUNT(*) FROM t GROUP BY a, b ORDER BY a DESC LIMIT 2";
        let got = group(
            sql,
            &[vec![i(3), i(1)], vec![f(3.0), i(1)], vec![f(3.0), i(2)], vec![i(2), i(1)], vec![i(3), i(2)]],
        );
        let want = vec![vec![i(3), i(1), i(2)], vec![f(3.0), i(2), i(2)]];
        assert!(identical(&got, &want), "{got:?}");
    }
}
