//! The serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_mix|write_mix|join_mix --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Starts the system through `ServiceBuilder` at its shipping defaults
//! (only the shard count and the durability root are set), replays the
//! workload generated from `--seed` from one generator thread, checks
//! every answer against a direct replay, and prints each metric by name
//! with its unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--smoke` shrinks the data so a run takes seconds.

mod drive;
mod layers;
mod oracle;
mod pass;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cbb_serve::Response;

use drive::{Outcome, Phase, GENERATOR_THREADS};
use layers::Row;
use oracle::Verdict;
use pass::{Pass, Tiling};
use stats::{failed_frac, latency_from_due, lateness, ms, percentile, Summary};
use workload::{Size, Spec};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload read_mix|write_mix|join_mix --seed N \
                     --seconds S --trace 0|1 [--smoke]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&git.join(reference))
                .or_else(|| {
                    read(&git.join("packed-refs")).and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .and_then(|l| l.split(' ').next())
                            .map(str::to_string)
                    })
                })
                .unwrap_or_else(|| format!("unresolved {reference}")),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

/// One end-to-end metric.
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    samples: usize,
    /// Gated in `BENCHMARK.json` (and so in the JSON result).
    gated: bool,
}

fn metric(
    name: &str,
    value: Option<f64>,
    unit: &'static str,
    samples: usize,
    gated: bool,
) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
        gated,
    }
}

/// Windows the open-loop median latency is taken over.
const LATENCY_WINDOW: Duration = Duration::from_secs(1);
/// Windows saturation throughput is counted over.
const SATURATION_WINDOW: Duration = Duration::from_millis(500);
/// Open-loop samples per tail window, so that each window's p99 has at
/// least ten samples beyond it.
const TAIL_WINDOW_SAMPLES: f64 = 1_000.0;

/// `[start, end)` cut into equal windows at least `width` long (one
/// window when the span is shorter).
fn windows(start: Duration, end: Duration, width: Duration) -> Vec<(Duration, Duration)> {
    let n = ((end - start).as_secs_f64() / width.as_secs_f64())
        .floor()
        .max(1.0) as u32;
    let step = (end - start) / n;
    (0..n)
        .map(|i| (start + step * i, start + step * (i + 1)))
        .collect()
}

/// End-to-end metrics of one pass.
///
/// A shared machine loses whole seconds to other tenants, and
/// interference only ever makes a window slower. So the windowed
/// figures are summarised by the quieter windows: `p50_ms` is the
/// median latency of the quietest second of the open loop and
/// `saturated_rps` the upper quartile of the half-second completion
/// rates. Only `setup_s` (the median set-up) and `p50_ms` are gated:
/// the throughput and the tail still spread across runs on a 2-core
/// shared machine by about as much as the largest bound allowed, so
/// they are printed, with the whole-phase and per-kind figures, but
/// not gated.
fn end_to_end<P: Tiling>(spec: &Spec<P>, pass: &Pass<P>, verdict: &Verdict) -> Vec<Metric> {
    let mut out = Vec::new();
    let setup = percentile(&pass.setup_s, 0.5);
    out.push(metric("setup_s", setup, "s", pass.setup_s.len(), true));
    let answered = |r: &&drive::Record| matches!(&r.outcome, Outcome::Done(c) if !matches!(c.response, Response::Failed(_)));
    let open: Vec<&drive::Record> = pass
        .records
        .iter()
        .filter(|r| r.phase == Phase::Open)
        .filter(answered)
        .collect();
    let latency = |kind: Option<&str>, window: Option<(Duration, Duration)>| -> Vec<f64> {
        open.iter()
            .filter(|r| kind.is_none_or(|k| r.op.kind() == k))
            .filter(|r| window.is_none_or(|(from, to)| r.due >= from && r.due < to))
            .map(|r| ms(latency_from_due(r.due, r.done)))
            .collect()
    };
    let (open_start, open_end) = pass.open;
    let per_window = |width: Duration, q: f64| -> Vec<f64> {
        windows(open_start, open_end, width)
            .into_iter()
            .filter_map(|w| percentile(&latency(None, Some(w)), q))
            .collect()
    };
    let medians = per_window(LATENCY_WINDOW, 0.5);
    let quietest = medians.iter().copied().reduce(f64::min);
    out.push(metric("p50_ms", quietest, "ms", medians.len(), true));
    let tail_width = Duration::from_secs_f64(TAIL_WINDOW_SAMPLES / spec.rate_hz);
    let tails = per_window(tail_width, 0.99);
    out.push(metric(
        "p99_ms",
        percentile(&tails, 0.5),
        "ms",
        tails.len(),
        false,
    ));
    if let Some(all) = Summary::of(&latency(None, None)) {
        out.push(metric(
            "p50_whole_phase_ms",
            Some(all.p50),
            "ms",
            all.n,
            false,
        ));
        out.push(metric(
            "p99_whole_phase_ms",
            Some(all.p99),
            "ms",
            all.n,
            false,
        ));
    }
    let (start, end) = pass.saturation;
    let saturated: Vec<Duration> = pass
        .records
        .iter()
        .filter(|r| r.phase == Phase::Saturation)
        .filter(answered)
        .map(|r| r.done)
        .collect();
    let rates: Vec<f64> = windows(start, end, SATURATION_WINDOW)
        .into_iter()
        .map(|(from, to)| {
            let n = saturated.iter().filter(|&&d| d >= from && d < to).count();
            n as f64 / (to - from).as_secs_f64()
        })
        .collect();
    out.push(metric(
        "saturated_rps",
        percentile(&rates, 0.75),
        "req/s",
        rates.len(),
        false,
    ));
    let whole = saturated.iter().filter(|&&d| d < end).count() as f64 / (end - start).as_secs_f64();
    out.push(metric(
        "saturated_whole_phase_rps",
        Some(whole),
        "req/s",
        saturated.len(),
        false,
    ));
    for kind in ["range", "knn", "write", "join"] {
        if let Some(s) = Summary::of(&latency(Some(kind), None)) {
            out.push(metric(
                &format!("{kind}_p50_ms"),
                Some(s.p50),
                "ms",
                s.n,
                false,
            ));
            out.push(metric(
                &format!("{kind}_p99_ms"),
                Some(s.p99),
                "ms",
                s.n,
                false,
            ));
        }
    }
    if let Some(restart) = &pass.restart {
        out.push(metric("recover_s", Some(restart.recover_s), "s", 1, false));
    }
    out.push(metric(
        "failed_frac",
        Some(failed_frac(verdict.failed, verdict.attempted)),
        "ratio",
        verdict.attempted as usize,
        false,
    ));
    let lag: Vec<f64> = pass
        .records
        .iter()
        .filter(|r| r.phase == Phase::Open)
        .map(|r| ms(lateness(r.due, r.sent)))
        .collect();
    out.push(metric(
        "gen_lag_p99_ms",
        percentile(&lag, 0.99),
        "ms",
        lag.len(),
        false,
    ));
    out
}

fn find(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| m.value)
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        let gate = if m.gated {
            ""
        } else {
            " [reported, not gated]"
        };
        println!(
            "{label} {} = {value} {} (n = {}){gate}",
            m.name, m.unit, m.samples
        );
    }
}

fn print_verdict(label: &str, verdict: &Verdict) {
    println!(
        "{label} checked {} answers: {} mismatches, {} failed",
        verdict.attempted, verdict.mismatches, verdict.failed
    );
    for example in &verdict.examples {
        println!("{label} mismatch: {example}");
    }
}

/// Set-ups timed after the answers are checked, and the first
/// durability root index they use (after those `pass::run` used).
const LATE_SETUPS: usize = 4;
const LATE_SETUP_ROOT: usize = 100;

/// Run one pass and check its answers.
fn checked_pass<P: Tiling>(
    spec: &Spec<P>,
    work: &Path,
    traced: bool,
    workers: usize,
) -> (Pass<P>, Verdict, oracle::Replay<P>) {
    std::fs::create_dir_all(work).expect("create the pass's work directory");
    let mut pass = pass::run(spec, work, traced);
    let (mut verdict, replay) = oracle::verify(spec, &pass.records, workers);
    // The last set-ups, seconds after the others.
    pass.setup_s
        .extend(pass::time_setups(spec, work, LATE_SETUP_ROOT, LATE_SETUPS));
    if let Some(restart) = pass.restart.as_mut() {
        oracle::verify_recovered(
            &restart.service,
            spec,
            &pass.records,
            &replay.store,
            workers,
            &mut verdict,
        );
    }
    (pass, verdict, replay)
}

/// The machine-readable result line.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run<P: Tiling>(
    spec: Spec<P>,
    args: &Args,
    work: &Path,
    generated_s: f64,
) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        GENERATOR_THREADS <= nproc,
        "the generator must not use more threads than there are cores"
    );
    let config = pass::builder(spec.shards, spec.durable.then_some(work)).config();
    println!("env nproc = {nproc}");
    println!("env generator_threads = {GENERATOR_THREADS}");
    println!("env commit = {}", commit());
    println!("env workload = {}", spec.name);
    println!("env seed = {}", args.seed);
    println!("env smoke = {}", args.smoke);
    println!("env run_seconds = {}", args.seconds);
    println!(
        "env open_loop = {:.1} s at {:.0} Hz, burstiness {}",
        spec.open_s, spec.rate_hz, spec.burstiness
    );
    println!(
        "env saturation = {:.1} s with {} requests outstanding",
        spec.saturation_s, spec.window
    );
    println!("env shards = {}", spec.shards);
    println!(
        "env durability = {}",
        if spec.durable {
            "on (fsync per write micro-batch)"
        } else {
            "off"
        }
    );
    for layer in &spec.datasets {
        println!(
            "env dataset {} = {} objects",
            layer.name,
            layer.objects.len()
        );
    }
    println!("env probe_sets = {}", spec.probe_sets.len());
    println!(
        "env requests_generated = {} open-loop, {} saturation, {} warm-up",
        spec.open.len(),
        spec.saturation.len(),
        spec.warmup.len()
    );
    println!("env input_generation_s = {generated_s:.3} (excluded from setup_s)");
    println!("env service_config = {config:?}");

    let (pass_a, verdict_a, _) = checked_pass(&spec, &work.join("untraced"), false, nproc);
    let e2e = end_to_end(&spec, &pass_a, &verdict_a);
    println!("setup_s samples = {:.4?}", pass_a.setup_s);
    print_verdict("check", &verdict_a);
    print_metrics("metric", &e2e);
    let mut correct = verdict_a.mismatches == 0;
    let mut attempted = verdict_a.attempted;
    let mut failed = verdict_a.failed;
    finish(pass_a);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let (pass_b, verdict_b, mut replay_b) =
            checked_pass(&spec, &work.join("traced"), true, nproc);
        print_verdict("check traced", &verdict_b);
        correct &= verdict_b.mismatches == 0;
        attempted += verdict_b.attempted;
        failed += verdict_b.failed;
        let traced = end_to_end(&spec, &pass_b, &verdict_b);
        print_metrics("metric traced", &traced);
        let mut rows: Vec<Row> = layers::measure(&spec, &pass_b, &mut replay_b, &config, work);
        finish(pass_b);
        let lag = find(&traced, "gen_lag_p99_ms");
        rows.push(Row {
            name: "bench.gen_lag_p99_ms",
            value: lag,
            unit: "ms",
            moves: "validity of every row",
            every_workload: true,
        });
        for (name, e2e_name) in [
            ("bench.trace_overhead_p50", "p50_ms"),
            ("bench.trace_overhead_p99", "p99_ms"),
            ("bench.trace_overhead_rps", "saturated_rps"),
        ] {
            // Traced cost over untraced cost: above 1 means tracing
            // slowed the run (for throughput the ratio is inverted).
            let ratio = |traced: f64, untraced: f64| match e2e_name {
                "saturated_rps" => untraced / traced,
                _ => traced / untraced,
            };
            rows.push(Row {
                name,
                value: find(&traced, e2e_name)
                    .zip(find(&e2e, e2e_name))
                    .map(|(t, u)| ratio(t, u)),
                unit: "ratio",
                moves: "validity of every row (traced / untraced)",
                every_workload: true,
            });
        }
        for row in &rows {
            let value = row
                .value
                .map_or("n/a (no such work on this workload)".into(), |v| {
                    format!("{v:.6} {}", row.unit)
                });
            println!("layer {} = {value}  -> should move {}", row.name, row.moves);
            if row.every_workload {
                let v = row.value.ok_or(format!("{} was not measured", row.name))?;
                metrics.push((row.name.to_string(), v, row.unit));
            }
        }
    } else {
        for m in e2e.iter().filter(|m| m.gated) {
            let v = m.value.ok_or(format!("{} was not measured", m.name))?;
            metrics.push((m.name.clone(), v, m.unit));
        }
    }
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite() || *v == 0.0) {
        return Err(format!("metric {name} is zero or not finite"));
    }
    Ok(result_json(correct, attempted, failed, &metrics))
}

/// Shut down a pass's restarted service, if any.
fn finish<P: Tiling>(pass: Pass<P>) {
    if let Some(restart) = pass.restart {
        restart.service.shutdown();
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work: PathBuf =
        Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let size = Size::new(args.smoke);
    // A traced run makes two passes (untraced, then traced) that share
    // the run's measuring time.
    let seconds = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "read_mix" => {
            let spec = workload::read_mix(size, args.seed, seconds);
            run(spec, &args, &work, started.elapsed().as_secs_f64())
        }
        "write_mix" => {
            let spec = workload::write_mix(size, args.seed, seconds);
            run(spec, &args, &work, started.elapsed().as_secs_f64())
        }
        "join_mix" => {
            let spec = workload::join_mix(size, args.seed, seconds);
            run(spec, &args, &work, started.elapsed().as_secs_f64())
        }
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(json) => println!("{json}"),
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "join_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "join_mix");
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 10, true, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&["--workload", "read_mix", "--seed", "1", "--seconds", "10"]).is_err());
        assert!(args(&[
            "--workload",
            "read_mix",
            "--seed",
            "x",
            "--seconds",
            "10",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "read_mix",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "read_mix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("p50_ms".into(), 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
