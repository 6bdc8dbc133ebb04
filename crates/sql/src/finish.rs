//! Result finishing shared by both SELECT executors: grouping state,
//! per-group finishing (aggregate results, HAVING, projections, sort
//! key), and ORDER BY / LIMIT.
//!
//! The finisher allocates per *emitted* row, not per input row or per
//! group:
//!
//! * [`Groups`] interns group keys into dense slots and keeps the keys
//!   and accumulators in flat slot-major arrays (strides: number of
//!   group keys, number of aggregates). Like an ordered map, the
//!   *first-seen* key value represents its group (`Int(1)` then
//!   `Float(1.0)` keeps `Int(1)`): [`Value`]'s `Hash` is consistent with
//!   its `cmp_total`-based `Eq`, so the hash maps merge exactly the keys
//!   the order merges. Without ORDER BY + LIMIT the slot indices are
//!   sorted by key under [`Value::cmp_total`] at the end, so groups
//!   finish in ascending key order — the order an ordered map would
//!   give — whatever order they were first seen in.
//! * [`Finisher`] evaluates each group's aggregate results, HAVING,
//!   projections and sort key into reused buffers, then offers the row
//!   to its sink.
//! * ORDER BY + LIMIT k selects first and materializes last. A
//!   candidate's sort key is compared with the worst entry kept, in
//!   place: keys that are bare column, aggregate or parameter
//!   references or literals are read where they lie, and only the
//!   others are evaluated (into one reused buffer). Heap entries hold
//!   the sort key, an arrival sequence and a reference to their source
//!   (the borrowed input row, or the group's key and slot), so
//!   replacing the worst entry copies key values and no tuple. The k
//!   winners' tuples are built once, after the scan. Groups are offered
//!   in slot order, without the slot sort; a tie on the sort key falls
//!   to the smaller group key, which is the ascending-key order the
//!   sort would have given (interned keys are pairwise unequal).
//!
//! Results do not depend on any of this: the same rows come out in the
//! same order (ties broken by arrival order, which for groups is
//! ascending key order), and a statement fails exactly when it would if
//! every row were materialized. Projections and sort keys that can fail
//! are evaluated for every row or group that passes HAVING, kept or
//! not; only those that cannot fail (literals, in-range column,
//! aggregate and parameter references) wait for the tuple build.

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
    s: &'s BoundSelect,
    map: KeyMap,
    slots: Slots<'s>,
}

impl<'s> Groups<'s> {
    pub(crate) fn new(s: &'s BoundSelect) -> Self {
        Groups {
            s,
            map: KeyMap::Unset,
            slots: Slots { aggs: &s.aggs, keys: Vec::new(), accs: Vec::new(), len: 0 },
        }
    }

    /// The one group of an implicit aggregation (no GROUP BY) whose
    /// accumulators were fed elsewhere.
    pub(crate) fn implicit(s: &'s BoundSelect, accs: Vec<AggAcc>) -> Self {
        debug_assert!(s.group_by.is_empty() && accs.len() == s.aggs.len());
        Groups { s, map: KeyMap::Unset, slots: Slots { aggs: &s.aggs, keys: Vec::new(), accs, len: 1 } }
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
        debug_assert_eq!(key.len(), self.s.group_by.len());
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
        let slot = match self.s.group_by.as_slice() {
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

    /// Finishes every group and returns the statement's rows. Implicit
    /// aggregation over zero rows still yields one group.
    pub(crate) fn finish(mut self, params: &[Value]) -> Result<Vec<Tuple>> {
        if self.s.group_by.is_empty() && self.slots.len == 0 {
            self.slots.push(&[]);
        }
        let (w, n) = (self.s.group_by.len(), self.slots.aggs.len());
        let Slots { keys, accs, len, .. } = &self.slots;
        let key = |slot: usize| &keys[slot * w..][..w];
        let accs = |slot: usize| &accs[slot * n..][..n];
        let mut fin = Finisher::new(self.s, params);
        if fin.selects_first() {
            // The top-K breaks ties by group key itself.
            for slot in 0..*len {
                fin.group(slot, key(slot), accs(slot))?;
            }
        } else {
            let mut order: Vec<usize> = (0..*len).collect();
            // Interned keys are pairwise unequal, so the unstable sort is
            // deterministic.
            order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
            for slot in order {
                fin.group(slot, key(slot), accs(slot))?;
            }
        }
        fin.finish_with(accs)
    }
}

// ----------------------------------------------------------------------
// Finishing and ORDER BY / LIMIT
// ----------------------------------------------------------------------

/// Streams finished rows into ORDER BY / LIMIT. Feed it input rows of a
/// non-grouped query ([`Finisher::project`]), or rows whose projections
/// were evaluated elsewhere ([`Finisher::offer`]); [`Finisher::finish`]
/// returns the statement's rows. Grouped queries finish through
/// [`Groups::finish`]. `'r` is the lifetime of the rows (or group keys)
/// that top-K entries reference.
pub(crate) struct Finisher<'s, 'r> {
    s: &'s BoundSelect,
    params: &'r [Value],
    sink: Sink<'s, 'r>,
    /// Arrival sequence of the next offered row.
    seq: usize,
    /// Reused buffers: sort key, output row, and a group's aggregate
    /// results.
    key: Vec<Value>,
    row: Vec<Value>,
    aggs: Vec<Value>,
}

impl<'s, 'r> Finisher<'s, 'r> {
    pub(crate) fn new(s: &'s BoundSelect, params: &'r [Value]) -> Self {
        let order = s.order_by.as_slice();
        let sink = if order.is_empty() {
            Sink::Stream { rows: Vec::new(), limit: s.limit.map_or(usize::MAX, |k| k as usize) }
        } else if let Some(k) = s.limit {
            Sink::TopK(TopK { order, k: k as usize, by_source: s.grouped, heap: BinaryHeap::new() })
        } else {
            Sink::Sort { rows: Vec::new() }
        };
        Finisher { s, params, sink, seq: 0, key: Vec::new(), row: Vec::new(), aggs: Vec::new() }
    }

    /// True when the sink is a top-K, which rebuilds its winners from
    /// their rows: then only projections that can fail need evaluating
    /// before [`Finisher::offer`].
    pub(crate) fn selects_first(&self) -> bool {
        matches!(self.sink, Sink::TopK(_))
    }

    /// Finishes group `slot`: aggregate results, HAVING, projections and
    /// sort key. Under a top-K the group is offered with `slot` as its
    /// sequence and `key` as its source.
    fn group(&mut self, slot: usize, key: &'r [Value], accs: &[AggAcc]) -> Result<()> {
        agg_results(&mut self.aggs, accs, &self.s.aggs);
        let ctx = EvalCtx { row: key, params: self.params, aggs: &self.aggs };
        if let Some(h) = &self.s.having {
            if !h.eval_predicate(&ctx)? {
                return Ok(());
            }
        }
        emit(self.s, &mut self.sink, &mut self.key, &mut self.row, &ctx, slot, key)
    }

    /// Projects one input row of a non-grouped query.
    pub(crate) fn project(&mut self, row: &'r [Value]) -> Result<()> {
        let ctx = EvalCtx { row, params: self.params, aggs: &[] };
        self.seq += 1;
        emit(self.s, &mut self.sink, &mut self.key, &mut self.row, &ctx, self.seq, row)
    }

    /// Offers input `row` of a non-grouped query whose projections and
    /// sort keys were evaluated elsewhere: `key[j]` is sort key `j`
    /// unless that key reads in place ([`reads_in_place`]), and `build`
    /// makes the row's tuple if a stream or sort sink keeps it.
    pub(crate) fn offer(
        &mut self,
        row: &'r [Value],
        key: &[Value],
        build: impl FnOnce() -> Result<Tuple>,
    ) -> Result<()> {
        let ctx = EvalCtx { row, params: self.params, aggs: &[] };
        let order = &self.s.order_by;
        let key_at = |j: usize| borrow(&order[j].0, &ctx).unwrap_or_else(|| &key[j]);
        self.seq += 1;
        match &mut self.sink {
            Sink::TopK(top) => {
                top.offer(key_at, self.seq, row);
                Ok(())
            }
            sink => sink.keep(|| (0..order.len()).map(|j| key_at(j).clone()).collect(), build),
        }
    }

    /// The statement's rows.
    pub(crate) fn finish(self) -> Result<Vec<Tuple>> {
        self.finish_with(|_| &[])
    }

    /// The statement's rows; `accs(slot)` gives a group's accumulators,
    /// to rebuild top-K winners that are groups.
    fn finish_with<'a>(mut self, accs: impl Fn(usize) -> &'a [AggAcc]) -> Result<Vec<Tuple>> {
        match self.sink {
            Sink::Stream { rows, .. } => Ok(rows),
            Sink::Sort { mut rows } => {
                let order = self.s.order_by.as_slice();
                rows.sort_by(|(a, _), (b, _)| key_cmp(|j| &a[j], b, order));
                Ok(rows.into_iter().map(|(_, t)| t).collect())
            }
            Sink::TopK(top) => top
                .heap
                .into_sorted_vec()
                .into_iter()
                .map(|e| {
                    agg_results(&mut self.aggs, accs(e.seq), &self.s.aggs);
                    build(self.s, &EvalCtx { row: e.src, params: self.params, aggs: &self.aggs })
                })
                .collect(),
        }
    }
}

/// A group's aggregate results, into `out`.
fn agg_results(out: &mut Vec<Value>, accs: &[AggAcc], specs: &[AggSpec]) {
    out.clear();
    out.extend(accs.iter().zip(specs).map(|(acc, spec)| acc.finish_for(spec)));
}

/// The value of `e` under `ctx` when it can be read in place: a
/// literal, or an in-range column, aggregate or parameter reference.
/// `None` means `e` must be evaluated, and may fail.
fn borrow<'a>(e: &'a BoundExpr, ctx: &EvalCtx<'a>) -> Option<&'a Value> {
    match e {
        BoundExpr::Literal(v) => Some(v),
        BoundExpr::Param(i) => ctx.params.get(*i),
        BoundExpr::Column(i) => ctx.row.get(*i),
        BoundExpr::AggRef(i) => ctx.aggs.get(*i),
        _ => None,
    }
}

/// True when [`Finisher::offer`] reads `e` in place from input rows of
/// `width` columns, so the caller need not evaluate it (the same test
/// as `borrow`, for a non-grouped query).
pub(crate) fn reads_in_place(e: &BoundExpr, width: usize, params: &[Value]) -> bool {
    match e {
        BoundExpr::Literal(_) => true,
        BoundExpr::Param(i) => *i < params.len(),
        BoundExpr::Column(i) => *i < width,
        _ => false,
    }
}

/// One output tuple: every projection evaluated under `ctx`.
fn build(s: &BoundSelect, ctx: &EvalCtx<'_>) -> Result<Tuple> {
    let mut vals = Vec::with_capacity(s.projections.len());
    for p in &s.projections {
        vals.push(p.eval(ctx)?);
    }
    Ok(Tuple::new(vals))
}

/// Evaluates one output row's projections and sort key, then offers
/// it; `seq` and `src` identify the row to a top-K.
///
/// Under a top-K only what can fail runs now: projections, whose values
/// are dropped (the winners are rebuilt from `src`), and sort keys that
/// cannot be read in place, into `key`. Otherwise projections that can
/// fail are evaluated now, in order, into `row` at their positions; the
/// rest are filled in only if the sink keeps the row, which then takes
/// `row` as its tuple. So `row` allocates once per kept row and never
/// for a row the sink drops; it is sized exactly because its buffer
/// becomes the tuple's.
fn emit<'r>(
    s: &BoundSelect,
    sink: &mut Sink<'_, 'r>,
    key: &mut Vec<Value>,
    row: &mut Vec<Value>,
    ctx: &EvalCtx<'_>,
    seq: usize,
    src: &'r [Value],
) -> Result<()> {
    if let Sink::TopK(top) = sink {
        for p in &s.projections {
            if borrow(p, ctx).is_none() {
                p.eval(ctx)?;
            }
        }
        key.clear();
        for (e, _) in &s.order_by {
            key.push(if borrow(e, ctx).is_some() { Value::Null } else { e.eval(ctx)? });
        }
        top.offer(|j| borrow(&s.order_by[j].0, ctx).unwrap_or_else(|| &key[j]), seq, src);
        return Ok(());
    }
    row.clear();
    row.reserve_exact(s.projections.len());
    for p in &s.projections {
        row.push(if borrow(p, ctx).is_some() { Value::Null } else { p.eval(ctx)? });
    }
    key.clear();
    for (e, _) in &s.order_by {
        key.push(e.eval(ctx)?);
    }
    sink.keep(
        || key.clone(),
        || {
            for (v, p) in row.iter_mut().zip(&s.projections) {
                if let Some(b) = borrow(p, ctx) {
                    *v = b.clone();
                }
            }
            Ok(Tuple::new(std::mem::take(row)))
        },
    )
}

/// Where finished rows go.
enum Sink<'s, 'r> {
    /// No ORDER BY: rows in arrival order, the first `limit` kept.
    Stream { rows: Vec<Tuple>, limit: usize },
    /// ORDER BY without LIMIT: every row, stably sorted at the end.
    Sort { rows: Vec<(Vec<Value>, Tuple)> },
    /// ORDER BY + LIMIT k.
    TopK(TopK<'s, 'r>),
}

impl Sink<'_, '_> {
    /// Keeps a row in a stream or sort sink. `key` (its sort key) and
    /// `build` (its tuple) run only if the row is kept.
    fn keep(&mut self, key: impl FnOnce() -> Vec<Value>, build: impl FnOnce() -> Result<Tuple>) -> Result<()> {
        match self {
            Sink::Stream { rows, limit } => {
                if rows.len() < *limit {
                    rows.push(build()?);
                }
            }
            Sink::Sort { rows } => rows.push((key(), build()?)),
            Sink::TopK(_) => unreachable!("a top-K keeps row references, not tuples"),
        }
        Ok(())
    }
}

/// A bounded max-heap of the k smallest rows under (sort key, tie).
/// O(n log k), and output-identical to the stable sort + truncate: the
/// stable order *is* (key, arrival), so its first k rows are exactly
/// these.
struct TopK<'s, 'r> {
    order: &'s OrderBy,
    k: usize,
    /// Ties on the sort key: false = arrival sequence (input rows), true
    /// = the source slices under `cmp_total`, ascending (groups, whose
    /// source is their key).
    by_source: bool,
    heap: BinaryHeap<Entry<'s, 'r>>,
}

struct Entry<'s, 'r> {
    key: Vec<Value>,
    seq: usize,
    src: &'r [Value],
    order: &'s OrderBy,
    by_source: bool,
}

impl<'s, 'r> TopK<'s, 'r> {
    /// Offers a row whose sort key `j` is `key(j)`. It enters when fewer
    /// than k rows are kept or it sorts before the worst of them, which
    /// it then replaces in place.
    fn offer<'a>(&mut self, key: impl Fn(usize) -> &'a Value, seq: usize, src: &'r [Value]) {
        let (order, by_source) = (self.order, self.by_source);
        if self.heap.len() < self.k {
            let key = (0..order.len()).map(&key).cloned().collect();
            self.heap.push(Entry { key, seq, src, order, by_source });
        } else if let Some(mut worst) = self.heap.peek_mut() {
            // The root is the worst of the best k.
            let enters = key_cmp(&key, &worst.key, order)
                .then_with(|| tie(by_source, (seq, src), (worst.seq, worst.src)))
                .is_lt();
            if enters {
                for (j, v) in worst.key.iter_mut().enumerate() {
                    v.clone_from(key(j));
                }
                worst.seq = seq;
                worst.src = src;
            } // dropping `worst` restores the heap order
        }
    }
}

/// Orders two rows that tie on the sort key, given as (sequence,
/// source).
fn tie(by_source: bool, a: (usize, &[Value]), b: (usize, &[Value])) -> Ordering {
    if by_source {
        a.1.cmp(b.1)
    } else {
        a.0.cmp(&b.0)
    }
}

impl Ord for Entry<'_, '_> {
    fn cmp(&self, other: &Self) -> Ordering {
        key_cmp(|j| &self.key[j], &other.key, self.order)
            .then_with(|| tie(self.by_source, (self.seq, self.src), (other.seq, other.src)))
    }
}
impl PartialOrd for Entry<'_, '_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Entry<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry<'_, '_> {}

/// One ORDER BY key comparison under the per-key sort directions
/// ([`Value::cmp_total`], so NULLs and NaNs are totally ordered); sort
/// key `j` of the left side is `a(j)`.
fn key_cmp<'a>(a: impl Fn(usize) -> &'a Value, b: &[Value], order: &OrderBy) -> Ordering {
    for (j, (vb, (_, dir))) in b.iter().zip(order).enumerate() {
        let ord = a(j).cmp_total(vb);
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
        groups.finish(&[]).unwrap().into_iter().map(Tuple::into_values).collect()
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

    #[test]
    fn grouped_top_k_ties_fall_to_the_smaller_merged_key() {
        let (i, f) = (Value::Int, Value::Float);
        // First seen in descending key order; three groups tie on COUNT(*).
        let rows: Vec<Vec<Value>> =
            [f(3.0), i(3), i(2), f(2.0), f(1.0), i(1), i(0)].into_iter().map(|a| vec![a, i(0)]).collect();
        let all = [vec![f(1.0), i(2)], vec![i(2), i(2)], vec![f(3.0), i(2)], vec![i(0), i(1)]];
        for k in 0..=5 {
            let got = group(&format!("SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY n DESC LIMIT {k}"), &rows);
            assert!(identical(&got, &all[..k.min(all.len())]), "LIMIT {k}: {got:?}");
        }
    }
}
