//! End-to-end benchmark of the S-Store reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload voter|linear_road|hybrid_tcp|all --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats fixed-size trials of one workload for `--seconds`
//! (each trial starts a fresh engine on the same seeded input) after
//! one warm-up trial on a second seed, checks every answer against a
//! reference model, and prints a report followed by one JSON line.
//! `--trace 0` reports the end-to-end metrics from untraced trials;
//! `--trace 1` alternates untraced and traced trials and reports the
//! per-layer metrics, with both trials' throughput side by side. See
//! `perfbench/README.md` for every metric.

mod layers;
mod model;
mod trial;
mod util;

use std::io::Write as _;
use std::time::{Duration, Instant};

use model::{Inputs, LinearRoadSize, VoterSize};
use trial::{Kind, Spec, Trial, GENERATOR_THREADS};
use util::{median, number, quantile, quote, Json};

const WORKLOADS: [&str; 3] = ["voter", "linear_road", "hybrid_tcp"];

/// The end-to-end metrics of the JSON line (and of `BENCHMARK.json`).
/// The report also prints `recovery_s`, the paced-phase latencies and
/// `failed_ratio` with their sample counts. Recovery time and latencies
/// are left out of the JSON line because on a 2-vCPU shared host their
/// run-to-run spread exceeds the largest bound a metric may have;
/// `failed_ratio` is 0 on every correct run, and the JSON line carries
/// `attempted` and `failed` instead.
const END_TO_END: [&str; 2] = ["setup_s", "throughput_tuples_s"];

/// Offset of the warm-up trial's seed from the measured one.
const SECOND_SEED_OFFSET: u64 = 0x5EED;

/// Shortest measurement a run makes, whatever `--seconds` says: enough
/// untraced (and traced) trials for a median.
const MIN_TRIALS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// Engine settings and seeded input of a workload.
fn workload(name: &str, seed: u64) -> (Spec, Inputs) {
    match name {
        "voter" => (
            Spec {
                kind: Kind::Voter,
                partitions: 1,
                logging: true,
                credits: 32,
                ckpt_every: 1_500,
                ckpt_after_setup: false,
                paced_rate: 250.0,
                tcp: false,
            },
            model::voter(
                seed,
                &VoterSize {
                    contestants: 200,
                    setup: 500,
                    bulk: 6_000,
                    paced: 250,
                    tail: 200,
                    reads: 250,
                    scan_every: 25,
                },
            ),
        ),
        "linear_road" => (
            Spec {
                kind: Kind::LinearRoad,
                partitions: 2,
                logging: false,
                credits: 16,
                ckpt_every: 0,
                ckpt_after_setup: false,
                paced_rate: 100.0,
                tcp: false,
            },
            model::linear_road(
                seed,
                &LinearRoadSize {
                    xways: 8,
                    vehicles: 200,
                    setup: 20,
                    bulk: 150,
                    paced: 13,
                    reads: 250,
                    scan_every: 25,
                    partitions: 2,
                },
            ),
        ),
        "hybrid_tcp" => (
            Spec {
                kind: Kind::HybridTcp,
                partitions: 1,
                logging: true,
                credits: 32,
                ckpt_every: 4_000,
                ckpt_after_setup: true,
                paced_rate: 250.0,
                tcp: true,
            },
            model::voter(
                seed,
                &VoterSize {
                    contestants: 200,
                    setup: 4_000,
                    bulk: 4_000,
                    paced: 250,
                    tail: 200,
                    reads: 250,
                    scan_every: 25,
                },
            ),
        ),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// One metric as reported: value, unit, samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

struct Report {
    name: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// One line per trial: every run made is reported.
    trial_lines: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    trials: usize,
}

fn run_workload(name: &'static str, args: &Args) -> sstore_common::Result<(Report, Vec<Trial>)> {
    let (spec, inputs) = workload(name, args.seed);
    let (_, second) = workload(name, args.seed.wrapping_add(SECOND_SEED_OFFSET));
    let mut errors = Vec::new();
    let nproc = util::host().0;
    if GENERATOR_THREADS > nproc {
        errors.push(format!(
            "{GENERATOR_THREADS} generator threads exceed nproc = {nproc}"
        ));
    }

    // Warm-up on the second seed: checked like any trial, not measured.
    let warm = trial::run(&spec, &second, false, 0)?;
    errors.extend(warm.errors.iter().map(|e| format!("second seed: {e}")));

    let mut trials: Vec<Trial> = Vec::new();
    let start = Instant::now();
    loop {
        let traced = args.trace && trials.len() % 2 == 1;
        let t0 = Instant::now();
        trials.push(trial::run(&spec, &inputs, traced, trials.len() + 1)?);
        let next = t0.elapsed();
        let untraced = trials.iter().filter(|t| !t.traced).count();
        let traced_n = trials.len() - untraced;
        let enough = untraced >= MIN_TRIALS && (!args.trace || traced_n >= MIN_TRIALS);
        if enough && start.elapsed() + next > Duration::from_secs(args.seconds) {
            break;
        }
    }

    for (i, t) in trials.iter().enumerate() {
        errors.extend(t.errors.iter().map(|e| format!("trial {}: {e}", i + 1)));
        if t.counts != trials[0].counts {
            errors.push(format!(
                "trial {}: counts {:?} differ from trial 1's {:?} at the same seed",
                i + 1,
                t.counts,
                trials[0].counts
            ));
        }
    }
    if second.expect == inputs.expect {
        errors.push("the second seed produced the same expected outcome as the first".into());
    }

    let plain: Vec<&Trial> = trials.iter().filter(|t| !t.traced).collect();
    let per_trial = |f: fn(&Trial) -> f64| -> Vec<f64> { plain.iter().map(|t| f(t)).collect() };
    // A latency quantile is taken per trial and reported as the median
    // over trials, so one disturbed trial cannot move it.
    let latency = |name: &'static str, f: fn(&Trial) -> &Vec<f64>, q: f64| -> Metric {
        let per: Vec<f64> = plain.iter().map(|t| quantile(f(t), q)).collect();
        let samples = plain.iter().map(|t| f(t).len()).sum();
        Metric::new(name, median(&per), "us", samples)
    };
    let attempted: u64 = trials.iter().map(|t| t.attempted).sum();
    let failed: u64 = trials.iter().map(|t| t.failed).sum();
    let n = plain.len();
    let end_to_end = vec![
        Metric::new("setup_s", median(&per_trial(|t| t.setup_s)), "s", n),
        Metric::new(
            "throughput_tuples_s",
            median(&per_trial(|t| t.throughput)),
            "tuples/s",
            n,
        ),
        Metric::new("recovery_s", median(&per_trial(|t| t.recovery_s)), "s", n),
        latency("ingest_p50_us", |t| &t.ingest_us, 0.5),
        latency("ingest_p99_us", |t| &t.ingest_us, 0.99),
        latency("read_p50_us", |t| &t.read_us, 0.5),
        latency("read_p99_us", |t| &t.read_us, 0.99),
        latency("scan_p50_us", |t| &t.scan_us, 0.5),
        Metric::new(
            "failed_ratio",
            util::ratio(failed as f64, attempted as f64),
            "ratio",
            attempted as usize,
        ),
    ];

    let mut per_layer = Vec::new();
    let traced: Vec<&Trial> = trials.iter().filter(|t| t.traced).collect();
    if let Some(first) = traced.first() {
        // Every traced trial reports the same metrics in the same order.
        for (i, (name, _)) in first.layers.iter().enumerate() {
            let values: Vec<f64> = traced.iter().map(|t| t.layers[i].1).collect();
            if *name == "trace.span_coverage" && values.iter().any(|c| *c < 0.95) {
                errors.push(format!(
                    "generator spans cover less than 95% of its wall time: {values:?}"
                ));
            }
            per_layer.push(Metric::new(
                name,
                median(&values),
                layer_unit(name),
                traced.len(),
            ));
        }
        let untraced_tp = median(&per_trial(|t| t.throughput));
        let traced_tp = median(&traced.iter().map(|t| t.throughput).collect::<Vec<_>>());
        per_layer.extend([
            Metric::new(
                "trace.untraced_throughput_tuples_s",
                untraced_tp,
                "tuples/s",
                n,
            ),
            Metric::new(
                "trace.traced_throughput_tuples_s",
                traced_tp,
                "tuples/s",
                traced.len(),
            ),
            Metric::new(
                "trace.overhead_pct",
                100.0 * util::ratio(untraced_tp - traced_tp, untraced_tp),
                "%",
                trials.len(),
            ),
        ]);
    }

    if args.trace {
        for (want, _, _) in layers::METRICS {
            if !per_layer.iter().any(|m| m.name == *want) {
                errors.push(format!("per-layer metric {want} was not measured"));
            }
        }
    }

    let report = Report {
        name,
        correct: errors.is_empty(),
        attempted,
        failed,
        errors,
        trial_lines: trials
            .iter()
            .enumerate()
            .map(|(i, t)| {
                format!(
                    "# trial {} traced={} setup_s={:.4} throughput_tuples_s={:.0} recovery_s={:.4} \
                     ingest_p50_us={:.1} read_p50_us={:.1} scan_p50_us={:.1}",
                    i + 1,
                    t.traced,
                    t.setup_s,
                    t.throughput,
                    t.recovery_s,
                    quantile(&t.ingest_us, 0.5),
                    quantile(&t.read_us, 0.5),
                    quantile(&t.scan_us, 0.5)
                )
            })
            .collect(),
        end_to_end,
        per_layer,
        trials: trials.len(),
    };
    Ok((report, trials))
}

fn layer_unit(name: &str) -> &'static str {
    layers::METRICS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or("?", |(_, unit, _)| unit)
}

fn print_report(r: &Report, args: &Args, host: &(usize, String, String), rev: &str) {
    let connections = if r.name == "hybrid_tcp" {
        GENERATOR_THREADS
    } else {
        0
    };
    println!(
        "# workload {} seed {} trace {} trials {}",
        r.name,
        args.seed,
        u8::from(args.trace),
        r.trials
    );
    println!(
        "# host nproc={} cpu={} kernel={} rev={} generator_threads={} connections={}",
        host.0,
        quote(&host.1),
        host.2,
        rev,
        GENERATOR_THREADS,
        connections
    );
    for l in &r.trial_lines {
        println!("{l}");
    }
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!(
            "{:<44} {:>16} {:<9} n={}",
            m.name,
            number(m.value),
            m.unit,
            m.samples
        );
    }
    for e in &r.errors {
        println!("# CHECK FAILED: {e}");
    }
    println!(
        "# correct={} attempted={} failed={}",
        r.correct, r.attempted, r.failed
    );
}

fn metric_json(metrics: &[&Metric]) -> String {
    let mut j = Json::default();
    for m in metrics {
        let entry = Json::default()
            .num("value", m.value)
            .str("unit", m.unit)
            .int("samples", m.samples as u64);
        j = j.raw(m.name, &entry.done());
    }
    j.done()
}

/// Writes the full report (and the last traced trial's spans) under
/// `.bench_out/` in the working directory.
fn save(
    r: &Report,
    trials: &[Trial],
    args: &Args,
    host: &(usize, String, String),
    rev: &str,
) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}-trace{}", r.name, args.seed, u8::from(args.trace));
    let all: Vec<&Metric> = r.end_to_end.iter().chain(&r.per_layer).collect();
    let counts = trials
        .first()
        .map(|t| format!("{:?}", t.counts))
        .unwrap_or_default();
    let json = Json::default()
        .str("workload", r.name)
        .int("seed", args.seed)
        .boolean("trace", args.trace)
        .int("nproc", host.0 as u64)
        .str("cpu", &host.1)
        .str("kernel", &host.2)
        .str("rev", rev)
        .int("generator_threads", GENERATOR_THREADS as u64)
        .int("trials", r.trials as u64)
        .str("counts", &counts)
        .raw("metrics", &metric_json(&all))
        .done();
    std::fs::write(dir.join(format!("{stem}.json")), json + "\n")?;
    if let Some(t) = trials.iter().rev().find(|t| t.traced) {
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.jsonl")),
        )?);
        for (thread, spans) in &t.spans {
            for s in spans {
                writeln!(
                    f,
                    "{{\"thread\":\"{thread}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    if s.parent == util::ROOT { -1 } else { i64::from(s.parent) }
                )?;
            }
        }
        f.flush()?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload voter|linear_road|hybrid_tcp|all --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload == "all" || args.workload == *w)
        .collect();
    let host = util::host();
    let rev = util::git_rev();
    let mut reports = Vec::new();
    for name in names {
        match run_workload(name, &args) {
            Ok((report, trials)) => {
                print_report(&report, &args, &host, &rev);
                if let Err(e) = save(&report, &trials, &args, &host, &rev) {
                    eprintln!("perfbench: could not write .bench_out: {e}");
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("perfbench: workload {name} could not run: {e}");
                std::process::exit(1);
            }
        }
    }
    let _ = std::fs::remove_dir(".bench_run");

    // The last line: end-to-end metrics untraced, per-layer metrics traced.
    let single = reports.len() == 1;
    let mut metrics: Vec<(String, &Metric)> = Vec::new();
    for r in &reports {
        let chosen = if args.trace {
            &r.per_layer
        } else {
            &r.end_to_end
        };
        let listed = |m: &&Metric| args.trace || END_TO_END.contains(&m.name);
        for m in chosen.iter().filter(listed) {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}.{}", r.name, m.name)
            };
            metrics.push((key, m));
        }
    }
    let mut mj = Json::default();
    for (k, m) in &metrics {
        mj = mj.raw(
            k,
            &Json::default()
                .num("value", m.value)
                .str("unit", m.unit)
                .done(),
        );
    }
    let correct = reports.iter().all(|r| r.correct);
    let line = Json::default()
        .boolean("correct", correct)
        .int("attempted", reports.iter().map(|r| r.attempted).sum())
        .int("failed", reports.iter().map(|r| r.failed).sum())
        .raw("metrics", &mj.done())
        .done();
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}
