//! One trial: set up an engine, run the closed-loop phase, the paced
//! phase with a concurrent reader, a final checkpoint and the logged
//! tail, crash, recover, and check every answer. A traced trial also
//! records spans and runs the per-layer replays.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sstore_common::{Error, Result, Tuple};
use sstore_engine::config::{LoggingConfig, OverloadPolicy};
use sstore_engine::metrics::{EngineMetrics, LatencyKind};
use sstore_engine::recovery::recover;
use sstore_engine::{App, Engine, EngineConfig, TxnClass};
use sstore_server::{Client, Server};
use sstore_sql::BoundStatement;
use sstore_workloads::{linearroad, voter};

use crate::layers;
use crate::model::{Expect, Inputs, ReadOp, Sql};
use crate::util::{mean, median, quantile, ratio, us, Span, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Voter,
    LinearRoad,
    HybridTcp,
}

/// Engine and phase settings of one workload.
pub struct Spec {
    pub kind: Kind,
    pub partitions: usize,
    pub logging: bool,
    pub credits: usize,
    /// Checkpoint after every this many closed-loop batches (0: never).
    pub ckpt_every: usize,
    pub ckpt_after_setup: bool,
    /// Open-loop rate of the paced phase, batches per second.
    pub paced_rate: f64,
    /// Client operations go through `Server`/`Client` on loopback TCP.
    pub tcp: bool,
}

/// Group commit of the logging workloads (records per flush).
pub const GROUP_COMMIT: usize = 16;

impl Spec {
    pub fn app(&self) -> App {
        match self.kind {
            Kind::Voter | Kind::HybridTcp => voter::leaderboard_app(true),
            Kind::LinearRoad => linearroad::linear_road_app(),
        }
    }

    pub fn logging_config(&self) -> LoggingConfig {
        LoggingConfig {
            enabled: self.logging,
            group_commit: GROUP_COMMIT,
            // Flush is a write(2) into the page cache; no fdatasync.
            fsync: false,
            ..LoggingConfig::default()
        }
    }

    fn config(&self, dir: &Path) -> EngineConfig {
        EngineConfig::default()
            .with_partitions(self.partitions)
            .with_data_dir(dir)
            .with_logging(self.logging_config())
            .with_admission_credits(self.credits)
            .with_overload(OverloadPolicy::Block {
                timeout: Duration::from_secs(30),
            })
    }

    /// Tables compared before the crash and after recovery.
    fn tables(&self) -> &'static [&'static str] {
        match self.kind {
            Kind::Voter | Kind::HybridTcp => &[
                "contestants",
                "votes",
                "vote_counts",
                "leaderboard",
                "total_votes",
            ],
            Kind::LinearRoad => &[
                "vehicles",
                "seg_stats",
                "seg_speed5",
                "accidents",
                "tolls",
                "notifications",
            ],
        }
    }
}

/// Engine counters read as one snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub committed: u64,
    pub aborted: u64,
    pub workflows: u64,
    pub log_records: u64,
    pub log_flushes: u64,
    pub ee_round_trips: u64,
    pub pe_fires: u64,
    pub ee_fires: u64,
    pub columnar: u64,
    pub fallback_small: u64,
    pub fallback_shape: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub slides: u64,
    pub late_merged: u64,
    pub late_dropped: u64,
    pub shed: u64,
}

impl Counters {
    fn read(m: &EngineMetrics) -> Counters {
        let g = EngineMetrics::get;
        Counters {
            committed: g(&m.txns_committed),
            aborted: g(&m.txns_aborted),
            workflows: g(&m.workflows_completed),
            log_records: g(&m.log_records),
            log_flushes: g(&m.log_flushes),
            ee_round_trips: g(&m.ee_round_trips),
            pe_fires: g(&m.pe_trigger_fires),
            ee_fires: g(&m.ee_trigger_fires),
            columnar: g(&m.columnar_batches),
            fallback_small: g(&m.columnar_fallback_small),
            fallback_shape: g(&m.columnar_fallback_shape),
            plan_hits: g(&m.adhoc_plan_hits),
            plan_misses: g(&m.adhoc_plan_misses),
            slides: g(&m.window_slides),
            late_merged: g(&m.window_late_merged),
            late_dropped: g(&m.window_late_dropped),
            shed: g(&m.shed_batches),
        }
    }

    fn since(self, o: Counters) -> Counters {
        Counters {
            committed: self.committed - o.committed,
            aborted: self.aborted - o.aborted,
            workflows: self.workflows - o.workflows,
            log_records: self.log_records - o.log_records,
            log_flushes: self.log_flushes - o.log_flushes,
            ee_round_trips: self.ee_round_trips - o.ee_round_trips,
            pe_fires: self.pe_fires - o.pe_fires,
            ee_fires: self.ee_fires - o.ee_fires,
            columnar: self.columnar - o.columnar,
            fallback_small: self.fallback_small - o.fallback_small,
            fallback_shape: self.fallback_shape - o.fallback_shape,
            plan_hits: self.plan_hits - o.plan_hits,
            plan_misses: self.plan_misses - o.plan_misses,
            slides: self.slides - o.slides,
            late_merged: self.late_merged - o.late_merged,
            late_dropped: self.late_dropped - o.late_dropped,
            shed: self.shed - o.shed,
        }
    }
}

/// Counts that must repeat exactly across trials of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub txns_committed: u64,
    pub txns_aborted: u64,
    pub log_records: u64,
    pub window_slides: u64,
    pub late_merged: u64,
    pub late_dropped: u64,
    pub replayed_records: u64,
}

/// Everything one trial measured.
pub struct Trial {
    pub traced: bool,
    pub setup_s: f64,
    pub throughput: f64,
    pub recovery_s: f64,
    pub ingest_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub scan_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
    /// Output checks that failed, and the first operation errors.
    pub errors: Vec<String>,
    /// Per-layer metrics (traced trials only).
    pub layers: Vec<(&'static str, f64)>,
    /// Recorded spans by thread (traced trials only).
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

/// Where client operations enter the system.
enum Edge<'e> {
    Local {
        engine: &'e Engine,
        stmts: Vec<Arc<BoundStatement>>,
    },
    Tcp {
        client: Client,
        stmts: Vec<u32>,
    },
}

impl Edge<'_> {
    fn prepare(&mut self, sql: &Sql) -> Result<()> {
        for text in [sql.point, sql.top3] {
            match self {
                Edge::Local { engine, stmts } => stmts.push(engine.prepare(text)?),
                Edge::Tcp { client, stmts } => stmts.push(client.prepare(text)?),
            }
        }
        Ok(())
    }

    fn ingest(&mut self, stream: &str, rows: Vec<Tuple>, sync: bool) -> Result<()> {
        match (self, sync) {
            (Edge::Local { engine, .. }, false) => engine.ingest(stream, rows).map(drop),
            (Edge::Local { engine, .. }, true) => engine.ingest_sync(stream, rows).map(drop),
            (Edge::Tcp { client, .. }, false) => client.ingest(stream, rows).map(drop),
            (Edge::Tcp { client, .. }, true) => client.ingest_sync(stream, rows).map(drop),
        }
    }

    fn read(&mut self, op: &ReadOp, sql: &Sql) -> Result<Vec<Tuple>> {
        let (partition, stmt, params) = match op {
            ReadOp::Point {
                partition, params, ..
            } => (*partition, Some(0), params.clone()),
            ReadOp::Top3 { partition } => (*partition, Some(1), Vec::new()),
            ReadOp::Scan { partition } => (*partition, None, Vec::new()),
        };
        let text = match stmt {
            Some(0) => sql.point,
            Some(_) => sql.top3,
            None => sql.scan,
        };
        match self {
            Edge::Local { engine, stmts } => Ok(match stmt {
                Some(i) => {
                    engine
                        .query_prepared(partition, text, stmts[i].clone(), params)?
                        .rows
                }
                None => engine.query_at(partition, text, params)?.rows,
            }),
            Edge::Tcp { client, stmts } => Ok(match stmt {
                Some(i) => client.execute(partition as u32, stmts[i], params)?.1,
                None => client.query_at(partition as u32, text, params)?.1,
            }),
        }
    }
}

/// Checks one reader answer against what the model allows.
fn check_read(op: &ReadOp, rows: &[Tuple]) -> std::result::Result<(), String> {
    match op {
        ReadOp::Point { params, expect, .. } => {
            if rows.len() == 1 && rows[0] == *expect {
                Ok(())
            } else {
                Err(format!(
                    "point read {params:?}: expected [{expect:?}], got {rows:?}"
                ))
            }
        }
        ReadOp::Top3 { .. } => {
            let cnt = |t: &Tuple| t.get(t.arity() - 1).as_int().unwrap_or(i64::MIN);
            if rows.len() == 3 && rows.windows(2).all(|w| cnt(&w[0]) >= cnt(&w[1])) {
                Ok(())
            } else {
                Err(format!(
                    "top-3 read: expected 3 rows by count descending, got {rows:?}"
                ))
            }
        }
        ReadOp::Scan { .. } => {
            if rows.is_empty() {
                Err("scan read returned no groups".into())
            } else {
                Ok(())
            }
        }
    }
}

/// Failures of one phase: operation errors and wrong answers.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn op<T>(&mut self, r: Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.note(format!("operation failed: {e}"));
                None
            }
        }
    }

    fn note(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for e in o.errors {
            self.note(e);
        }
    }
}

fn scalar(engine: &Engine, sql: &str) -> Result<i64> {
    engine
        .query(0, sql, vec![])?
        .scalar()
        .ok_or_else(|| Error::InvalidState(format!("{sql}: no row")))?
        .as_int()
}

fn ints(rows: &[Tuple]) -> Vec<Vec<i64>> {
    rows.iter()
        .map(|t| {
            t.values()
                .iter()
                .map(|v| v.as_int().unwrap_or(i64::MIN))
                .collect()
        })
        .collect()
}

/// Order-independent digest `(rows, hash sum)` of every table on every
/// partition: equal before the crash and after recovery.
fn digest(engine: &Engine, spec: &Spec) -> Result<Vec<(u64, u64)>> {
    let mut out = Vec::new();
    for t in spec.tables() {
        for p in 0..spec.partitions {
            let rows = engine.query(p, &format!("SELECT * FROM {t}"), vec![])?.rows;
            let sum = rows.iter().fold(0u64, |acc, r| {
                let mut h = DefaultHasher::new();
                r.hash(&mut h);
                acc.wrapping_add(h.finish())
            });
            out.push((rows.len() as u64, sum));
        }
    }
    Ok(out)
}

/// End-of-input checks against the reference model.
fn verify(
    engine: &Engine,
    spec: &Spec,
    inputs: &Inputs,
    delta: Counters,
    tally: &mut Tally,
) -> Result<()> {
    let mut fail = |what: &str, want: String, got: String| {
        tally.note(format!("{what}: expected {want}, got {got}"));
    };
    match &inputs.expect {
        Expect::Voter {
            total_votes,
            active,
            top3,
            per_contestant,
            workflows,
        } => {
            let total = scalar(engine, "SELECT n FROM total_votes")?;
            if total != *total_votes {
                fail("total_votes", total_votes.to_string(), total.to_string());
            }
            let got: Vec<i64> = engine
                .query(
                    0,
                    "SELECT id FROM contestants WHERE active = 1 ORDER BY id",
                    vec![],
                )?
                .int_column(0)?;
            if got != *active {
                fail(
                    "active contestants",
                    format!("{active:?}"),
                    format!("{got:?}"),
                );
            }
            if got.len() < 2 {
                fail(
                    "active contestants at end",
                    ">= 2".into(),
                    got.len().to_string(),
                );
            }
            let got = ints(&engine.query(0, inputs.sql.top3, vec![])?.rows);
            let want: Vec<Vec<i64>> = top3.iter().map(|(c, n)| vec![*c, *n]).collect();
            if got != want {
                fail("top-3", format!("{want:?}"), format!("{got:?}"));
            }
            let mut got = ints(&engine.query(0, inputs.sql.scan, vec![])?.rows);
            got.sort_unstable();
            let want: Vec<Vec<i64>> = per_contestant.iter().map(|(c, n)| vec![*c, *n]).collect();
            if got != want {
                fail(
                    "votes per contestant",
                    format!("{} groups", want.len()),
                    format!("{} groups (differs)", got.len()),
                );
            }
            // Every batch is one workflow round; a round with a valid
            // vote commits validate, maintain and delete_lowest.
            let batches = inputs.batches() as u64;
            let want = batches + 2 * workflows + inputs.reads.len() as u64;
            if delta.committed != want || delta.workflows != batches {
                fail(
                    "transactions (committed, workflow rounds)",
                    format!("({want}, {batches})"),
                    format!("({}, {})", delta.committed, delta.workflows),
                );
            }
            if (*workflows as f64) < 0.99 * batches as f64 {
                fail(
                    "batches running the full workflow",
                    format!(">= 99% of {batches}"),
                    workflows.to_string(),
                );
            }
        }
        Expect::LinearRoad {
            seg_stats,
            late_dropped,
            late_merged,
        } => {
            let mut got = Vec::new();
            for p in 0..spec.partitions {
                let rows = engine
                    .query(
                        p,
                        "SELECT xway, seg, wts, cnt, speed_sum FROM seg_stats",
                        vec![],
                    )?
                    .rows;
                got.extend(ints(&rows));
            }
            got.sort_unstable();
            let want: Vec<Vec<i64>> = seg_stats.iter().map(|r| r.to_vec()).collect();
            if got != want {
                let first = got.iter().zip(&want).position(|(a, b)| a != b);
                fail(
                    "seg_stats",
                    format!("{} rows", want.len()),
                    format!("{} rows, first difference at {first:?}", got.len()),
                );
            }
            if delta.late_dropped != *late_dropped || delta.late_merged != *late_merged {
                fail(
                    "late reports (dropped, merged)",
                    format!("({late_dropped}, {late_merged})"),
                    format!("({}, {})", delta.late_dropped, delta.late_merged),
                );
            }
        }
    }
    if delta.aborted != 0 || delta.shed != 0 {
        fail(
            "aborted and refused transactions",
            "0".into(),
            format!("{} aborted, {} refused", delta.aborted, delta.shed),
        );
    }
    Ok(())
}

/// Takes the engine back from the server. A session that saw its client
/// hang up deregisters itself and can still hold its handle for a moment
/// after `Server::stop` returns, so this waits for it to let go.
pub fn sole_owner(mut engine: Arc<Engine>) -> Result<Engine> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Arc::try_unwrap(engine) {
            Ok(e) => return Ok(e),
            Err(shared) if Instant::now() < deadline => {
                engine = shared;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                return Err(Error::InvalidState(
                    "engine still shared 10 s after server stop".into(),
                ))
            }
        }
    }
}

fn data_dir(kind: Kind, trial: usize) -> PathBuf {
    Path::new(".bench_run").join(format!("{kind:?}-{}-{trial}", std::process::id()))
}

/// Runs one trial. Operation errors and wrong answers are reported in
/// [`Trial::errors`]; an `Err` means the trial could not run at all.
pub fn run(spec: &Spec, inputs: &Inputs, traced: bool, trial: usize) -> Result<Trial> {
    let dir = data_dir(spec.kind, trial);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let out = run_in(spec, inputs, traced, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_in(spec: &Spec, inputs: &Inputs, traced: bool, dir: &Path) -> Result<Trial> {
    let config = spec.config(dir);
    let origin = Instant::now();
    let mut gen = Tracer::new(traced, origin);
    let mut tally = Tally::default();
    let mut layers: Vec<(&'static str, f64)> = Vec::new();

    // --- Set-up: engine, seed, warm-up or preload, server and sessions.
    let t_setup = Instant::now();
    let engine = Engine::start(config.clone(), spec.app())?;
    if inputs.contestants > 0 {
        voter::seed(&engine, inputs.contestants)?;
    }
    let base = Counters::read(engine.metrics());
    for b in &inputs.setup {
        tally.op(engine.ingest(inputs.stream, b.clone()));
    }
    engine.drain()?;
    if spec.ckpt_after_setup {
        engine.checkpoint()?;
    }
    let engine = Arc::new(engine);
    let server = if spec.tcp {
        Some(Server::start(engine.clone(), "127.0.0.1:0")?)
    } else {
        None
    };
    let connect = |server: &Option<Server>| -> Result<Edge<'_>> {
        Ok(match server {
            Some(s) => Edge::Tcp {
                client: Client::connect(s.local_addr(), "bench")?,
                stmts: Vec::new(),
            },
            None => Edge::Local {
                engine: &engine,
                stmts: Vec::new(),
            },
        })
    };
    let mut writer = connect(&server)?;
    let mut reader = connect(&server)?;
    reader.prepare(&inputs.sql)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    // --- Closed loop: fixed input, backlog bounded by admission credits.
    let before_bulk = Counters::read(engine.metrics());
    let mut in_flight = Vec::new();
    let mut ckpt_s = Vec::new();
    let t_bulk = Instant::now();
    gen.begin("bulk");
    for (i, b) in inputs.bulk.iter().enumerate() {
        let rows = gen.span("generate", || b.clone());
        if traced {
            in_flight.push(
                (0..spec.partitions)
                    .map(|p| engine.admitted_in_flight(p))
                    .sum::<usize>() as f64,
            );
        }
        let r = gen.span("ingest", || writer.ingest(inputs.stream, rows, false));
        tally.op(r);
        if spec.ckpt_every > 0 && (i + 1) % spec.ckpt_every == 0 {
            let t = Instant::now();
            gen.span("checkpoint", || {
                engine.drain().and_then(|()| engine.checkpoint())
            })?;
            ckpt_s.push(t.elapsed().as_secs_f64());
        }
    }
    gen.span("drain", || engine.drain())?;
    gen.end();
    let bulk_s = t_bulk.elapsed().as_secs_f64();
    let throughput = inputs.bulk_tuples() as f64 / bulk_s;
    let after_bulk = Counters::read(engine.metrics());

    // --- Paced: open-loop writer at a fixed rate, open-loop reader.
    let period = Duration::from_secs_f64(1.0 / spec.paced_rate);
    let (mut ingest_us, mut lateness_us) = (Vec::new(), Vec::new());
    let (mut read_us, mut scan_us) = (Vec::new(), Vec::new());
    let mut reader_tr = Tracer::new(traced, origin);
    let (w_tally, r_tally) = std::thread::scope(|s| {
        let gen = &mut gen;
        let (ingest_us, lateness_us) = (&mut ingest_us, &mut lateness_us);
        let writer = &mut writer;
        // Both threads run off one clock. Reads fall halfway between
        // writes, so the two collide only when an operation overruns.
        let start = Instant::now() + Duration::from_millis(1);
        let paced = s.spawn(move || {
            let mut t = Tally::default();
            gen.begin("paced");
            for (i, b) in inputs.paced.iter().enumerate() {
                let due = start + period * i as u32;
                let now = Instant::now();
                if now < due {
                    gen.span("sleep", || std::thread::sleep(due - now));
                }
                lateness_us.push(us(Instant::now().saturating_duration_since(due)));
                let rows = gen.span("generate", || b.clone());
                let r = gen.span("ingest", || writer.ingest(inputs.stream, rows, true));
                if t.op(r).is_some() {
                    ingest_us.push(us(due.elapsed()));
                }
            }
            gen.end();
            t
        });
        let (read_us, scan_us, tr) = (&mut read_us, &mut scan_us, &mut reader_tr);
        let reader = &mut reader;
        // The reader is open-loop too, spread over the writer's schedule,
        // so the offered mix does not depend on how fast reads return.
        let read_period = period * inputs.paced.len() as u32 / inputs.reads.len().max(1) as u32;
        let read_start = start + read_period / 2;
        let reads = s.spawn(move || {
            let mut t = Tally::default();
            for (i, op) in inputs.reads.iter().enumerate() {
                let due = read_start + read_period * i as u32;
                let now = Instant::now();
                if now < due {
                    tr.span("sleep", || std::thread::sleep(due - now));
                }
                let name = if matches!(op, ReadOp::Scan { .. }) {
                    "scan"
                } else {
                    "read"
                };
                let r = tr.span(name, || reader.read(op, &inputs.sql));
                let rtt = us(due.elapsed());
                if let Some(rows) = t.op(r) {
                    if let Err(e) = check_read(op, &rows) {
                        t.note(e);
                    }
                    if name == "scan" {
                        scan_us.push(rtt)
                    } else {
                        read_us.push(rtt)
                    }
                }
            }
            t
        });
        (
            paced.join().expect("paced writer panicked"),
            reads.join().expect("reader panicked"),
        )
    });
    tally.absorb(w_tally);
    tally.absorb(r_tally);

    // --- Final checkpoint, then the fixed tail only the log can replay.
    let t = Instant::now();
    engine.drain()?;
    engine.checkpoint()?;
    ckpt_s.push(t.elapsed().as_secs_f64());
    let checkpoint_bytes = engine.metrics().log_lifecycle().checkpoint_bytes;
    for b in &inputs.tail {
        tally.op(writer.ingest(inputs.stream, b.clone(), false));
    }
    engine.drain()?;
    let end = Counters::read(engine.metrics());
    let total = end.since(base);
    verify(&engine, spec, inputs, total, &mut tally)?;
    // Histograms cover the whole trial; read them before the crash.
    let classes = [
        (
            TxnClass::Border,
            "partition.queue_wait_p50_us.border",
            "partition.exec_p50_us.border",
        ),
        (
            TxnClass::Interior,
            "partition.queue_wait_p50_us.interior",
            "partition.exec_p50_us.interior",
        ),
        (
            TxnClass::Oltp,
            "partition.queue_wait_p50_us.oltp",
            "partition.exec_p50_us.oltp",
        ),
        (
            TxnClass::WindowSlide,
            "partition.queue_wait_p50_us.window_slide",
            "partition.exec_p50_us.window_slide",
        ),
    ];
    let class_latency: Vec<(&'static str, f64)> = classes
        .into_iter()
        .flat_map(|(c, queue, exec)| {
            let p50 = |k| us(engine.metrics().latency.histogram(c, k).snapshot().p50);
            [
                (queue, p50(LatencyKind::QueueWait)),
                (exec, p50(LatencyKind::Execution)),
            ]
        })
        .collect();
    let before = digest(&engine, spec)?;

    // --- Crash: sessions and server gone, queues drained, log flushed.
    drop((writer, reader));
    drop(server);
    let engine = sole_owner(engine)?;
    engine.drain()?;
    engine.flush_logs()?;
    engine.shutdown();
    let log_replay = if traced && spec.logging {
        Some(layers::replay_log(spec, &config, dir)?)
    } else {
        None
    };

    // --- Recovery.
    let t_rec = Instant::now();
    let (recovered, report) = recover(config.clone(), spec.app())?;
    let recovery_s = t_rec.elapsed().as_secs_f64();
    let replay_s = EngineMetrics::get(&recovered.metrics().recovery_replay_ms) as f64 / 1e3;
    if digest(&recovered, spec)? != before {
        tally.note("recovered tables differ from their pre-crash contents".into());
    }

    if traced {
        let d = end.since(before_bulk);
        let timed = || inputs.bulk.iter().chain(&inputs.paced).chain(&inputs.tail);
        let batches = timed().count() as f64;
        let tuples = timed().map(Vec::len).sum::<usize>() as f64;
        // The log holds every record since start, set-up included.
        let logged_tuples = tuples + inputs.setup.iter().map(Vec::len).sum::<usize>() as f64;
        let ops = batches + inputs.reads.len() as f64;
        let bulk_d = after_bulk.since(before_bulk);
        let call = gen.durations_us("ingest");
        let bulk_calls = &call[..inputs.bulk.len().min(call.len())];
        let bulk_span = gen.durations_us("bulk").first().copied().unwrap_or(0.0);
        let generate: f64 = gen
            .durations_us("generate")
            .iter()
            .take(inputs.bulk.len())
            .sum();
        layers.extend([
            ("admission.ingest_call_p50_us", quantile(bulk_calls, 0.5)),
            ("admission.ingest_call_p99_us", quantile(bulk_calls, 0.99)),
            ("admission.in_flight_mean", mean(&in_flight)),
        ]);
        layers.extend(class_latency);
        layers.extend([
            (
                "txn.committed_per_batch",
                ratio((d.committed - inputs.reads.len() as u64) as f64, batches),
            ),
            (
                "txn.aborted_ratio",
                ratio(d.aborted as f64, (d.committed + d.aborted) as f64),
            ),
            (
                "ee.round_trips_per_batch",
                ratio(bulk_d.ee_round_trips as f64, inputs.bulk.len() as f64),
            ),
            (
                "pe.trigger_fires_per_batch",
                ratio(bulk_d.pe_fires as f64, inputs.bulk.len() as f64),
            ),
            (
                "ee.trigger_fires_per_batch",
                ratio(bulk_d.ee_fires as f64, inputs.bulk.len() as f64),
            ),
            ("window.slides", d.slides as f64),
            ("window.late_merged", d.late_merged as f64),
            ("window.late_dropped", d.late_dropped as f64),
            (
                "sql.columnar_batches_per_1k_tuples",
                ratio(1e3 * d.columnar as f64, tuples),
            ),
            (
                "sql.fallback_small_per_1k_tuples",
                ratio(1e3 * d.fallback_small as f64, tuples),
            ),
            (
                "sql.fallback_shape_per_1k_tuples",
                ratio(1e3 * d.fallback_shape as f64, tuples),
            ),
            (
                "sql.plan_cache_hit_ratio",
                ratio(d.plan_hits as f64, (d.plan_hits + d.plan_misses) as f64),
            ),
            ("log.records_per_op", ratio(d.log_records as f64, ops)),
            ("log.flushes_per_op", ratio(d.log_flushes as f64, ops)),
        ]);
        let (append_us, flush_us, log_bytes) = log_replay.unwrap_or_default();
        layers.extend([
            (
                "log.bytes_per_tuple",
                ratio(log_bytes as f64, logged_tuples),
            ),
            ("log.append_us", append_us),
            ("log.flush_us", flush_us),
            ("checkpoint.call_s", median(&ckpt_s)),
            ("checkpoint.bytes", checkpoint_bytes as f64),
            ("recovery.replayed_records", report.records_replayed as f64),
            ("recovery.replay_s", replay_s),
            ("recovery.restore_s", (recovery_s - replay_s).max(0.0)),
            ("gen.lateness_p99_us", quantile(&lateness_us, 0.99)),
            ("gen.busy_ratio", ratio(generate, bulk_span)),
            (
                "trace.span_coverage",
                gen.child_coverage("bulk").min(gen.child_coverage("paced")),
            ),
        ]);
        layers.extend(layers::replay_sql(spec, inputs, &recovered)?);
        layers.extend(layers::replay_codec(inputs)?);
        layers.push(("server.edge_us", layers::edge_us(inputs, recovered)?));
    } else {
        recovered.shutdown();
    }

    Ok(Trial {
        traced,
        setup_s,
        throughput,
        recovery_s,
        ingest_us,
        read_us,
        scan_us,
        attempted: tally.attempted,
        failed: tally.failed,
        counts: Counts {
            txns_committed: total.committed,
            txns_aborted: total.aborted,
            log_records: total.log_records,
            window_slides: total.slides,
            late_merged: total.late_merged,
            late_dropped: total.late_dropped,
            replayed_records: report.records_replayed as u64,
        },
        errors: tally.errors,
        layers,
        spans: if traced {
            vec![("generator", gen.spans), ("reader", reader_tr.spans)]
        } else {
            Vec::new()
        },
    })
}

/// The paced writer and the reader: the most generator threads (and,
/// for TCP workloads, connections) a trial uses at once.
pub const GENERATOR_THREADS: usize = 2;
