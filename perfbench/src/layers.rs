//! Per-layer replays for traced trials. Each one feeds the trial's own
//! inputs or end-of-run state through a lower layer's public API, so a
//! layer's cost is measured without touching engine code.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sstore_common::{Error, Result, Tuple, Value};
use sstore_engine::log::CommandLog;
use sstore_engine::{Engine, EngineConfig};
use sstore_server::protocol::write_frame;
use sstore_server::{Client, Request, Response, Server};
use sstore_sql::{execute, parse, Planner};
use sstore_storage::{Catalog, TableKind};

use crate::model::{Inputs, ReadOp};
use crate::trial::{Kind, Spec};
use crate::util::{median, us};

/// Every per-layer metric a traced run reports: name, unit, and the
/// direction that is better.
pub const METRICS: &[(&str, &str, &str)] = &[
    ("admission.ingest_call_p50_us", "us", "lower"),
    ("admission.ingest_call_p99_us", "us", "lower"),
    ("admission.in_flight_mean", "requests", "lower"),
    ("partition.queue_wait_p50_us.border", "us", "lower"),
    ("partition.exec_p50_us.border", "us", "lower"),
    ("partition.queue_wait_p50_us.interior", "us", "lower"),
    ("partition.exec_p50_us.interior", "us", "lower"),
    ("partition.queue_wait_p50_us.oltp", "us", "lower"),
    ("partition.exec_p50_us.oltp", "us", "lower"),
    ("partition.queue_wait_p50_us.window_slide", "us", "lower"),
    ("partition.exec_p50_us.window_slide", "us", "lower"),
    ("txn.committed_per_batch", "txns/batch", "lower"),
    ("txn.aborted_ratio", "ratio", "lower"),
    ("ee.round_trips_per_batch", "count/batch", "lower"),
    ("pe.trigger_fires_per_batch", "count/batch", "lower"),
    ("ee.trigger_fires_per_batch", "count/batch", "lower"),
    ("window.slides", "count", "lower"),
    ("window.late_merged", "count", "lower"),
    ("window.late_dropped", "count", "lower"),
    ("sql.columnar_batches_per_1k_tuples", "count/1k", "higher"),
    ("sql.fallback_small_per_1k_tuples", "count/1k", "lower"),
    ("sql.fallback_shape_per_1k_tuples", "count/1k", "lower"),
    ("sql.plan_cache_hit_ratio", "ratio", "higher"),
    ("log.records_per_op", "count/op", "lower"),
    ("log.flushes_per_op", "count/op", "lower"),
    ("log.bytes_per_tuple", "bytes/tuple", "lower"),
    ("log.append_us", "us", "lower"),
    ("log.flush_us", "us", "lower"),
    ("checkpoint.call_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("recovery.replayed_records", "count", "lower"),
    ("recovery.replay_s", "s", "lower"),
    ("recovery.restore_s", "s", "lower"),
    ("gen.lateness_p99_us", "us", "lower"),
    ("gen.busy_ratio", "ratio", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
    ("sql.parse_us", "us", "lower"),
    ("sql.bind_us", "us", "lower"),
    ("sql.point_exec_us", "us", "lower"),
    ("sql.topk_exec_us", "us", "lower"),
    ("sql.groupby_scan_us", "us", "lower"),
    ("sql.slide_agg_us", "us", "lower"),
    ("server.codec_us", "us", "lower"),
    ("server.edge_us", "us", "lower"),
    ("trace.untraced_throughput_tuples_s", "tuples/s", "higher"),
    ("trace.traced_throughput_tuples_s", "tuples/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Re-appends the trial's command-log records to a fresh log with the
/// same group-commit policy. Returns the median append (µs), the extra
/// cost of an append that also flushed (µs), and the bytes of the
/// trial's own log files.
pub fn replay_log(spec: &Spec, config: &EngineConfig, dir: &Path) -> Result<(f64, f64, u64)> {
    let mut records = Vec::new();
    let mut bytes = 0u64;
    for p in 0..spec.partitions {
        let prefix = config.log_path(p);
        records.extend(CommandLog::read_all(&prefix)?);
        let name = prefix
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with(&name) {
                bytes += entry.metadata()?.len();
            }
        }
    }
    let mut log = CommandLog::create(dir.join("replay.cmdlog"), spec.logging_config())?;
    let (mut appends, mut flushing) = (Vec::new(), Vec::new());
    for r in records {
        let before = log.flushes();
        let t = Instant::now();
        log.append(&r.proc, r.kind)?;
        let d = us(t.elapsed());
        if log.flushes() > before {
            flushing.push(d);
        } else {
            appends.push(d);
        }
    }
    log.close()?;
    let append = median(&appends);
    Ok((append, (median(&flushing) - append).max(0.0), bytes))
}

/// Times parse, bind and execution of the workload's statements over a
/// catalog holding partition 0's end-of-run tables.
pub fn replay_sql(
    spec: &Spec,
    inputs: &Inputs,
    engine: &Engine,
) -> Result<Vec<(&'static str, f64)>> {
    let app = spec.app();
    let mut catalog = Catalog::new();
    let (tables, window, slide_sql): (&[&str], &str, &str) = match spec.kind {
        Kind::Voter | Kind::HybridTcp => (
            &["votes", "vote_counts"],
            "w_trend",
            "SELECT contestant, COUNT(*) FROM w_trend GROUP BY contestant \
             ORDER BY COUNT(*) DESC, contestant LIMIT 3",
        ),
        Kind::LinearRoad => (
            &["seg_stats", "tolls"],
            "seg_win",
            "SELECT xway, seg, MIN(ts), COUNT(*), SUM(speed) FROM seg_win GROUP BY xway, seg",
        ),
    };
    for def in app
        .tables
        .iter()
        .filter(|t| tables.contains(&t.name.as_str()))
    {
        let rows = engine
            .query(0, &format!("SELECT * FROM {}", def.name), vec![])?
            .rows;
        let table = catalog.create_table(def.name.clone(), TableKind::Base, def.schema.clone())?;
        for idx in &def.indexes {
            table.create_index(idx.clone())?;
        }
        for r in rows {
            table.insert(r)?;
        }
    }
    // The window holds one extent: the trending window's last 100 votes,
    // or the last paced tick's reports on partition 0.
    let def = app
        .windows
        .iter()
        .find(|w| w.name() == window)
        .ok_or_else(|| Error::InvalidState(format!("no window {window}")))?;
    let table = catalog.create_table(window, TableKind::Window, def.schema.clone())?;
    let last: Vec<Tuple> = match spec.kind {
        Kind::Voter | Kind::HybridTcp => inputs
            .paced
            .iter()
            .flatten()
            .rev()
            .take(sstore_workloads::voter::TREND_WINDOW)
            .map(|v| Tuple::new(vec![v.get(1).clone()]))
            .collect(),
        Kind::LinearRoad => {
            let rows: Vec<&Tuple> = inputs.paced.iter().flatten().collect();
            let newest = rows
                .iter()
                .filter_map(|r| r.get(1).as_int().ok())
                .max()
                .unwrap_or(0);
            rows.into_iter()
                .filter(|r| r.get(1).as_int().ok() == Some(newest))
                .filter(|r| sstore_engine::engine::hash_partition(r.get(2), spec.partitions) == 0)
                .map(|r| {
                    Tuple::new(vec![
                        r.get(1).clone(),
                        r.get(2).clone(),
                        r.get(3).clone(),
                        r.get(4).clone(),
                    ])
                })
                .collect()
        }
    };
    for r in last {
        table.insert(r)?;
    }

    let texts = [
        inputs.sql.point,
        inputs.sql.top3,
        inputs.sql.scan,
        slide_sql,
    ];
    let (mut parse_us, mut bind_us) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        for text in texts {
            let t = Instant::now();
            let ast = parse(text)?;
            parse_us.push(us(t.elapsed()));
            let t = Instant::now();
            black_box(Planner::new(&catalog).plan(&ast)?);
            bind_us.push(us(t.elapsed()));
        }
    }
    let plan = |text: &str| Planner::new(&catalog).plan_sql(text);
    let (point, top3, scan, slide) = (
        plan(texts[0])?,
        plan(texts[1])?,
        plan(texts[2])?,
        plan(texts[3])?,
    );
    let points: Vec<&Vec<Value>> = inputs
        .reads
        .iter()
        .filter_map(|op| match op {
            ReadOp::Point { params, .. } => Some(params),
            _ => None,
        })
        .collect();
    let mut effects = Vec::new();
    let mut time = |catalog: &mut Catalog,
                    stmt,
                    reps: usize,
                    params: &dyn Fn(usize) -> Vec<Value>|
     -> Result<f64> {
        let mut v = Vec::with_capacity(reps);
        for i in 0..reps {
            let p = params(i);
            let t = Instant::now();
            black_box(execute(catalog, stmt, &p, &mut effects)?);
            v.push(us(t.elapsed()));
        }
        Ok(median(&v))
    };
    let none = |_: usize| Vec::new();
    Ok(vec![
        ("sql.parse_us", median(&parse_us)),
        ("sql.bind_us", median(&bind_us)),
        (
            "sql.point_exec_us",
            time(&mut catalog, &point, 2000, &|i| {
                points[i % points.len()].clone()
            })?,
        ),
        ("sql.topk_exec_us", time(&mut catalog, &top3, 500, &none)?),
        ("sql.groupby_scan_us", time(&mut catalog, &scan, 21, &none)?),
        ("sql.slide_agg_us", time(&mut catalog, &slide, 201, &none)?),
    ])
}

/// Median cost (µs) of one wire round of codec work on the trial's own
/// frames: encode and frame a paced batch, decode a point-read reply.
pub fn replay_codec(inputs: &Inputs) -> Result<Vec<(&'static str, f64)>> {
    let reply = inputs
        .reads
        .iter()
        .find_map(|op| match op {
            ReadOp::Point { expect, .. } => Some(expect.clone()),
            _ => None,
        })
        .map(|row| Response::Rows {
            columns: vec!["c".into(); row.arity()],
            rows: vec![row],
            rows_affected: 0,
        })
        .unwrap_or(Response::Batch { batch: 1 })
        .encode();
    let mut frame = Vec::new();
    let mut v = Vec::new();
    for (i, batch) in inputs.paced.iter().cycle().take(4000).enumerate() {
        let req = Request::Ingest {
            stream: inputs.stream.into(),
            rows: batch.clone(),
            sync: true,
        };
        frame.clear();
        let t = Instant::now();
        write_frame(&mut frame, &req.encode())?;
        black_box(Response::decode(&reply)?);
        v.push(us(t.elapsed()));
        black_box((i, &frame));
    }
    Ok(vec![("server.codec_us", median(&v))])
}

/// TCP edge cost on the recovered state: median point-read RTT through
/// `Server`/`Client` minus the median of the same reads in-process.
/// Consumes (and shuts down) the engine.
pub fn edge_us(inputs: &Inputs, engine: Engine) -> Result<f64> {
    let engine = Arc::new(engine);
    let mut server = Server::start(engine.clone(), "127.0.0.1:0")?;
    let mut client = Client::connect(server.local_addr(), "bench-edge")?;
    let remote = client.prepare(inputs.sql.point)?;
    let local = engine.prepare(inputs.sql.point)?;
    let (mut tcp, mut inproc) = (Vec::new(), Vec::new());
    let points = inputs
        .reads
        .iter()
        .filter(|op| matches!(op, ReadOp::Point { .. }));
    for op in points.cycle().take(600) {
        let ReadOp::Point {
            partition, params, ..
        } = op
        else {
            unreachable!()
        };
        let t = Instant::now();
        black_box(client.execute(*partition as u32, remote, params.clone())?);
        tcp.push(us(t.elapsed()));
        let t = Instant::now();
        black_box(engine.query_prepared(
            *partition,
            inputs.sql.point,
            local.clone(),
            params.clone(),
        )?);
        inproc.push(us(t.elapsed()));
    }
    client.goodbye()?;
    server.stop();
    drop(server);
    crate::trial::sole_owner(engine)?.shutdown();
    Ok(median(&tcp) - median(&inproc))
}
