//! Seeded inputs for each workload and the reference models the
//! engine's answers are checked against.
//!
//! Inputs are generated in full before a trial starts, so the program
//! under test receives only tuples and the reference outcome is known
//! up front. The models are written from the applications' stated
//! rules, not from engine code.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sstore_common::{Tuple, Value};
use sstore_engine::engine::hash_partition;
use sstore_workloads::gen::{TrafficGen, Vote, VoteGen};
use sstore_workloads::linearroad::STATS_WINDOW_MS;
use sstore_workloads::voter::DELETE_EVERY;

use crate::util::Rng;

/// One reader operation of the paced phase.
#[derive(Debug, Clone)]
pub enum ReadOp {
    /// Prepared point lookup whose exact answer is known.
    Point {
        partition: usize,
        params: Vec<Value>,
        expect: Tuple,
    },
    /// Prepared top-3 query.
    Top3 { partition: usize },
    /// Ad-hoc full-table GROUP BY.
    Scan { partition: usize },
}

/// The reader's three statements.
pub struct Sql {
    pub point: &'static str,
    pub top3: &'static str,
    pub scan: &'static str,
}

pub const VOTER_SQL: Sql = Sql {
    point: "SELECT phone, contestant, ts FROM votes WHERE phone = ?",
    top3: "SELECT contestant, cnt FROM vote_counts ORDER BY cnt DESC, contestant LIMIT 3",
    scan: "SELECT contestant, COUNT(*) FROM votes GROUP BY contestant",
};

pub const LR_SQL: Sql = Sql {
    point: "SELECT cnt, speed_sum FROM seg_stats WHERE xway = ? AND seg = ? AND wts = ?",
    top3: "SELECT vid, amount FROM tolls ORDER BY amount DESC, vid LIMIT 3",
    scan: "SELECT xway, COUNT(*), SUM(cnt) FROM seg_stats GROUP BY xway",
};

/// What the engine must hold once every input has been processed.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Voter {
        total_votes: i64,
        active: Vec<i64>,
        top3: Vec<(i64, i64)>,
        /// Surviving votes per contestant (the scan's exact answer).
        per_contestant: Vec<(i64, i64)>,
        /// Batches that ran the whole validate → maintain →
        /// delete_lowest workflow (at least one valid vote).
        workflows: u64,
    },
    LinearRoad {
        /// `(xway, seg, wts, cnt, speed_sum)`, sorted.
        seg_stats: Vec<[i64; 5]>,
        late_dropped: u64,
        late_merged: u64,
    },
}

/// A workload's whole seeded input plus its expected outcome.
pub struct Inputs {
    pub stream: &'static str,
    pub sql: Sql,
    /// Warm-up or preload batches, ingested during set-up.
    pub setup: Vec<Vec<Tuple>>,
    /// Closed-loop phase: the throughput measurement.
    pub bulk: Vec<Vec<Tuple>>,
    /// Open-loop phase, concurrent with the reader.
    pub paced: Vec<Vec<Tuple>>,
    /// Ingested after the final checkpoint and before the crash: the
    /// fixed suffix recovery replays from the command log.
    pub tail: Vec<Vec<Tuple>>,
    pub reads: Vec<ReadOp>,
    pub expect: Expect,
    /// Contestants to seed (voter app only).
    pub contestants: usize,
}

impl Inputs {
    pub fn bulk_tuples(&self) -> usize {
        self.bulk.iter().map(Vec::len).sum()
    }

    pub fn batches(&self) -> usize {
        self.setup.len() + self.bulk.len() + self.paced.len() + self.tail.len()
    }
}

/// The reader's op list: every `scan_every`-th op is a scan, the rest
/// alternate point lookups and top-3 queries.
fn reads(
    n: usize,
    scan_every: usize,
    rng: &mut Rng,
    partitions: usize,
    mut point: impl FnMut(&mut Rng) -> ReadOp,
) -> Vec<ReadOp> {
    (0..n)
        .map(|i| {
            let partition = i % partitions;
            if i % scan_every == scan_every - 1 {
                ReadOp::Scan { partition }
            } else if i % 2 == 0 {
                point(rng)
            } else {
                ReadOp::Top3 { partition }
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Voter (leaderboard)
// ---------------------------------------------------------------------

/// Voter input sizes, in 10-vote batches.
pub struct VoterSize {
    pub contestants: usize,
    pub setup: usize,
    pub bulk: usize,
    pub paced: usize,
    pub tail: usize,
    pub reads: usize,
    pub scan_every: usize,
}

pub const VOTES_PER_BATCH: usize = 10;
/// Share of votes, per mille, that reuse an earlier phone.
pub const DUPLICATE_PERMILLE: u32 = 50;

/// The leaderboard rules: a vote counts if its contestant is active and
/// its phone has no recorded vote; every batch with a valid vote runs
/// maintenance and then, when the running total is a multiple of
/// [`DELETE_EVERY`] and more than one contestant remains, eliminates
/// the contestant with the fewest votes (ties: lowest id) and deletes
/// that contestant's votes.
#[derive(Default)]
struct Leaderboard {
    counts: BTreeMap<i64, i64>,
    phones: HashMap<i64, (i64, i64)>,
    by_contestant: HashMap<i64, Vec<i64>>,
    total: i64,
    workflows: u64,
}

impl Leaderboard {
    fn new(contestants: usize) -> Leaderboard {
        Leaderboard {
            counts: (1..=contestants as i64).map(|c| (c, 0)).collect(),
            ..Leaderboard::default()
        }
    }

    fn batch(&mut self, votes: &[Vote]) {
        let mut valid = 0;
        for v in votes {
            if !self.counts.contains_key(&v.contestant) || self.phones.contains_key(&v.phone) {
                continue;
            }
            self.phones.insert(v.phone, (v.contestant, v.ts));
            self.by_contestant
                .entry(v.contestant)
                .or_default()
                .push(v.phone);
            *self.counts.get_mut(&v.contestant).expect("active") += 1;
            valid += 1;
        }
        if valid == 0 {
            return;
        }
        self.total += valid;
        self.workflows += 1;
        if self.total % DELETE_EVERY == 0 && self.counts.len() > 1 {
            let (&lowest, _) = self
                .counts
                .iter()
                .min_by_key(|(c, n)| (**n, **c))
                .expect("non-empty");
            self.counts.remove(&lowest);
            for phone in self.by_contestant.remove(&lowest).unwrap_or_default() {
                self.phones.remove(&phone);
            }
        }
    }

    fn top3(&self) -> Vec<(i64, i64)> {
        let mut v: Vec<(i64, i64)> = self.counts.iter().map(|(c, n)| (*c, *n)).collect();
        v.sort_by_key(|(c, n)| (-n, *c));
        v.truncate(3);
        v
    }
}

pub fn voter(seed: u64, size: &VoterSize) -> Inputs {
    let mut gen = VoteGen::new(seed, size.contestants, DUPLICATE_PERMILLE);
    let mut batches =
        |n: usize| -> Vec<Vec<Vote>> { (0..n).map(|_| gen.votes(VOTES_PER_BATCH)).collect() };
    let setup = batches(size.setup);
    let bulk = batches(size.bulk);
    let paced = batches(size.paced);
    let tail = batches(size.tail);

    let mut model = Leaderboard::new(size.contestants);
    for b in setup.iter().chain(&bulk).chain(&paced).chain(&tail) {
        model.batch(b);
    }
    // Point reads target votes acknowledged before the paced phase
    // starts that are still recorded at the end, so their answer is
    // exact whenever the read runs.
    let acked_ts = bulk.last().and_then(|b| b.last()).map_or(0, |v| v.ts);
    let mut targets: Vec<(i64, (i64, i64))> = model
        .phones
        .iter()
        .filter(|(_, (_, ts))| *ts <= acked_ts)
        .map(|(p, v)| (*p, *v))
        .collect();
    targets.sort_unstable();
    assert!(
        !targets.is_empty(),
        "voter input leaves no acknowledged vote to read"
    );
    let mut rng = Rng::new(seed);
    let reads = reads(size.reads, size.scan_every, &mut rng, 1, |rng| {
        let (phone, (contestant, ts)) = targets[rng.below(targets.len() as u64) as usize];
        ReadOp::Point {
            partition: 0,
            params: vec![Value::Int(phone)],
            expect: Tuple::new(vec![
                Value::Int(phone),
                Value::Int(contestant),
                Value::Int(ts),
            ]),
        }
    });
    let mut per_contestant: Vec<(i64, i64)> = model
        .by_contestant
        .iter()
        .filter(|(_, phones)| !phones.is_empty())
        .map(|(c, phones)| (*c, phones.len() as i64))
        .collect();
    per_contestant.sort_unstable();
    let to_tuples = |bs: Vec<Vec<Vote>>| -> Vec<Vec<Tuple>> {
        bs.into_iter()
            .map(|b| b.iter().map(Vote::tuple).collect())
            .collect()
    };
    Inputs {
        stream: "votes_in",
        sql: VOTER_SQL,
        setup: to_tuples(setup),
        bulk: to_tuples(bulk),
        paced: to_tuples(paced),
        tail: to_tuples(tail),
        reads,
        expect: Expect::Voter {
            total_votes: model.total,
            active: model.counts.keys().copied().collect(),
            top3: model.top3(),
            per_contestant,
            workflows: model.workflows,
        },
        contestants: size.contestants,
    }
}

// ---------------------------------------------------------------------
// Linear Road
// ---------------------------------------------------------------------

/// Linear Road input sizes, in 30 s ticks.
pub struct LinearRoadSize {
    pub xways: usize,
    pub vehicles: usize,
    pub setup: usize,
    pub bulk: usize,
    pub paced: usize,
    pub reads: usize,
    pub scan_every: usize,
    pub partitions: usize,
}

/// Per mille of reports (outside the first and last two closed-loop
/// ticks) delivered one tick late with their own timestamp: staged
/// before their extent fires, so they count normally.
pub const LATE_STAGED_PERMILLE: u64 = 20;
/// Per mille delivered one tick late with a timestamp 1–10 s before
/// their tick: their extent has fired, but they are within the allowed
/// lateness, so they merge into the active extent.
pub const LATE_MERGED_PERMILLE: u64 = 5;
/// Per mille delivered two ticks late: 30 s behind the watermark,
/// beyond the allowed lateness, so they are dropped.
pub const LATE_DROPPED_PERMILLE: u64 = 5;

pub fn linear_road(seed: u64, size: &LinearRoadSize) -> Inputs {
    let mut gen = TrafficGen::new(seed, size.xways, size.vehicles);
    let mut rng = Rng::new(seed);
    let closed = size.setup + size.bulk;
    let ticks = closed + size.paced;
    // deliveries[i]: the rows of tick i's closed-loop batch.
    let mut deliveries: Vec<Vec<Tuple>> = vec![Vec::new(); closed];
    let mut paced: Vec<Vec<Tuple>> = Vec::new();
    // (xway, seg, tick) → (cnt, speed_sum) over reports staged normally.
    let mut stats: BTreeMap<(i64, i64, usize), (i64, i64)> = BTreeMap::new();
    let (mut dropped, mut merged) = (0u64, 0u64);
    for i in 0..ticks {
        let per_xway = gen.tick();
        if i >= closed {
            // Paced ticks: one batch per x-way, in order.
            for batch in per_xway {
                for r in &batch {
                    let e = stats.entry((r.xway, r.seg, i)).or_default();
                    e.0 += 1;
                    e.1 += r.speed;
                }
                paced.push(batch.iter().map(|r| r.tuple()).collect());
            }
            continue;
        }
        let may_displace = i >= 2 && i + 2 < closed;
        for r in per_xway.into_iter().flatten() {
            let roll = if may_displace { rng.below(1000) } else { 1000 };
            let mut r = r;
            let target = if roll < LATE_DROPPED_PERMILLE {
                dropped += 1;
                i + 2
            } else if roll < LATE_DROPPED_PERMILLE + LATE_MERGED_PERMILLE {
                merged += 1;
                r.time -= 1_000 + rng.below(9_001) as i64;
                i + 1
            } else {
                let late =
                    roll < LATE_DROPPED_PERMILLE + LATE_MERGED_PERMILLE + LATE_STAGED_PERMILLE;
                let e = stats.entry((r.xway, r.seg, i)).or_default();
                e.0 += 1;
                e.1 += r.speed;
                if late {
                    i + 1
                } else {
                    i
                }
            };
            deliveries[target].push(r.tuple());
        }
    }
    let owners: BTreeSet<usize> = (0..size.xways as i64)
        .map(|x| hash_partition(&Value::Int(x), size.partitions))
        .collect();
    assert_eq!(
        owners.len(),
        size.partitions,
        "every partition must own an x-way"
    );
    // Extent of tick i (event time (i+1)·30 s) fires once the watermark
    // reaches (i+2)·30 s, i.e. when tick i+1 commits: every tick but the
    // last is aggregated.
    let fired = |i: usize| i + 1 < ticks;
    let seg_stats: Vec<[i64; 5]> = stats
        .iter()
        .filter(|((_, _, i), _)| fired(*i))
        .map(|((x, s, i), (c, sum))| [*x, *s, (*i as i64 + 1) * STATS_WINDOW_MS, *c, *sum])
        .collect();
    // Point reads target extents aggregated before the paced phase.
    let targets: Vec<&[i64; 5]> = seg_stats
        .iter()
        .filter(|r| r[2] < closed as i64 * STATS_WINDOW_MS)
        .collect();
    let reads = reads(
        size.reads,
        size.scan_every,
        &mut rng,
        size.partitions,
        |rng| {
            let r = targets[rng.below(targets.len() as u64) as usize];
            ReadOp::Point {
                partition: hash_partition(&Value::Int(r[0]), size.partitions),
                params: vec![Value::Int(r[0]), Value::Int(r[1]), Value::Int(r[2])],
                expect: Tuple::new(vec![Value::Int(r[3]), Value::Int(r[4])]),
            }
        },
    );
    let mut setup = deliveries;
    let bulk = setup.split_off(size.setup);
    Inputs {
        stream: "reports",
        sql: LR_SQL,
        setup,
        bulk,
        paced,
        // Without a command log nothing after the final checkpoint
        // survives a crash.
        tail: Vec::new(),
        reads,
        expect: Expect::LinearRoad {
            seg_stats,
            late_dropped: dropped,
            late_merged: merged,
        },
        contestants: 0,
    }
}
