//! Per-layer metrics of the traced run. Nothing is instrumented inside
//! the program: the serve and router rows come from each request's
//! `Completion` and from the counters `report()`, `shard_reports()`
//! and `scrape()` expose; the engine, joins, rtree and storage rows
//! time calls into each crate's public functions, replaying the run's
//! own requests against the replayed `DatasetStore`.

use std::path::Path;
use std::time::{Duration, Instant};

use cbb_engine::pool::map_chunked;
use cbb_engine::{
    encode_update_batch, partitioned_join_forests, partitioned_join_with, DataVersion,
    DatasetStore, JoinAlgo, JoinPlan, QueryAlgo, SplitPolicy, TileForest, Update,
};
use cbb_geom::{Point, Rect};
use cbb_joins::sweep;
use cbb_rtree::{AccessStats, DataId};
use cbb_serve::{Scrape, ServiceConfig};
use cbb_storage::WalWriter;

use crate::drive::{Outcome, Phase as RunPhase, Record};
use crate::oracle::Replay;
use crate::pass::{clip, tree, Pass, Tiling};
use crate::stats::{mean, ms, percentile};
use crate::workload::{Op, Spec};

/// Requests replayed per engine probe.
const QUERY_CAP: usize = 4_096;
/// kNN probes replayed per engine probe.
const PROBE_CAP: usize = 2_048;
/// Updates applied by the engine probe on a workload without writes.
const SYNTHETIC_UPDATES: usize = 512;
/// Batches written to the scratch WAL.
const WAL_BATCHES: usize = 100;
/// Calls timed by the pool dispatch probe.
const DISPATCH_CALLS: usize = 2_000;
/// Repetitions of the forest build probe.
const BUILD_REPS: usize = 3;

/// One per-layer metric with the end-to-end metric it should move.
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Measured value; `None` where the workload has no such work.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end metric it should move, and on which workload.
    pub moves: &'static str,
    /// Whether the metric is defined on every workload (and so goes
    /// into the machine-readable result).
    pub every_workload: bool,
}

fn row(
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    moves: &'static str,
    every_workload: bool,
) -> Row {
    Row {
        name,
        value,
        unit,
        moves,
        every_workload,
    }
}

/// Sum and count of one phase histogram over several scrapes.
fn phase_totals(scrapes: &[Scrape], phase: &str) -> (u64, u64) {
    scrapes
        .iter()
        .filter_map(|s| {
            s.snapshot
                .histogram("cbb_request_phase_ns", &[("phase", phase)])
        })
        .fold((0, 0), |(sum, count), h| (sum + h.sum, count + h.count))
}

/// Mean milliseconds of `phase` recorded between two scrape sets.
fn phase_mean_ms(before: &[Scrape], after: &[Scrape], phase: &str) -> Option<f64> {
    let (s0, c0) = phase_totals(before, phase);
    let (s1, c1) = phase_totals(after, phase);
    (c1 > c0).then(|| (s1 - s0) as f64 / (c1 - c0) as f64 / 1e6)
}

fn counter(scrapes: &[Scrape], name: &str) -> u64 {
    scrapes
        .iter()
        .filter_map(|s| s.snapshot.counter(name, &[]))
        .sum()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Rectangles the engine probes replay: the run's range windows, or,
/// on a join workload, the rectangles of the probe sets it sent.
fn query_rects<P>(spec: &Spec<P>, records: &[Record]) -> Vec<Rect<2>> {
    let mut rects: Vec<Rect<2>> = records
        .iter()
        .filter_map(|r| match r.op {
            Op::Range(q) => Some(q),
            _ => None,
        })
        .take(QUERY_CAP)
        .collect();
    if rects.is_empty() {
        let mut seen = vec![false; spec.probe_sets.len()];
        for r in records {
            if let Op::Probe(set) = r.op {
                if !std::mem::replace(&mut seen[set], true) {
                    rects.extend_from_slice(&spec.probe_sets[set]);
                }
            }
        }
        rects.truncate(QUERY_CAP);
    }
    assert!(!rects.is_empty(), "every workload sends rectangles");
    rects
}

/// kNN probes to replay: the run's own, or the centres of `rects`.
fn knn_probes(records: &[Record], rects: &[Rect<2>]) -> Vec<(Point<2>, usize)> {
    let probes: Vec<(Point<2>, usize)> = records
        .iter()
        .filter_map(|r| match r.op {
            Op::Knn(c, k) => Some((c, k)),
            _ => None,
        })
        .take(PROBE_CAP)
        .collect();
    if probes.is_empty() {
        rects
            .iter()
            .take(PROBE_CAP)
            .map(|r| (r.center(), 10))
            .collect()
    } else {
        probes
    }
}

/// Access counters of clipped per-query descents over `rects`.
fn descent_stats<P: Tiling>(store: &DatasetStore<2, P>, rects: &[Rect<2>]) -> AccessStats {
    store
        .run_with(
            rects,
            1,
            true,
            QueryAlgo::Descend,
            &Default::default(),
            SplitPolicy::Auto,
        )
        .stats
}

fn clip_prune_ratio(stats: &AccessStats) -> f64 {
    stats.clip_prunes as f64 / (stats.leaf_accesses + stats.clip_prunes) as f64
}

/// Measure every per-layer metric of a traced pass.
pub fn measure<P: Tiling>(
    spec: &Spec<P>,
    pass: &Pass<P>,
    replay: &mut Replay<P>,
    config: &ServiceConfig,
    work: &Path,
) -> Vec<Row> {
    let workers = config.exec_workers;
    let records = &pass.records;
    let mut rows = Vec::new();

    // ── serve: per-request timing the service reports itself ──────
    let open: Vec<(&Record, &cbb_serve::Completion)> = records
        .iter()
        .filter(|r| r.phase == RunPhase::Open)
        .filter_map(|r| match &r.outcome {
            Outcome::Done(c) => Some((r, c)),
            _ => None,
        })
        .collect();
    let queued: Vec<f64> = open.iter().map(|(_, c)| ms(c.queued)).collect();
    let serviced: Vec<f64> = open.iter().map(|(_, c)| ms(c.serviced)).collect();
    let respond: Vec<f64> = open
        .iter()
        .map(|(r, c)| ms(r.done - r.sent) - ms(c.queued) - ms(c.serviced))
        .collect();
    rows.push(row(
        "serve.queue_wait_ms",
        percentile(&queued, 0.5),
        "ms",
        "p50_ms (range_p50_ms) on read_mix",
        true,
    ));
    rows.push(row(
        "serve.exec_ms",
        percentile(&serviced, 0.5),
        "ms",
        "p50_ms (range_p50_ms, knn_p50_ms) on read_mix",
        true,
    ));
    rows.push(row(
        "serve.respond_ms",
        percentile(&respond, 0.5),
        "ms",
        "p50_ms (range_p50_ms) on read_mix",
        true,
    ));
    // Open-loop batches: in the saturation phase every batch is full
    // (the window exceeds `batch_max`), so only the open loop shows how
    // much the batching deadline coalesces.
    let (before, mid) = (&pass.before.report, &pass.mid.report);
    let batch_mean = (mid.batches > before.batches)
        .then(|| (mid.completed - before.completed) as f64 / (mid.batches - before.batches) as f64);
    rows.push(row(
        "serve.batch_mean",
        batch_mean,
        "requests",
        "p50_ms (range_p50_ms), saturated_rps on read_mix",
        true,
    ));
    rows.push(row(
        "serve.lock_wait_ms",
        phase_mean_ms(&pass.before.shards, &pass.after.shards, "lock_acquire"),
        "ms",
        "p99_ms (range_p99_ms) on write_mix",
        true,
    ));

    // ── router ─────────────────────────────────────────────────────
    let router_before = std::slice::from_ref(&pass.before.router);
    let router_after = std::slice::from_ref(&pass.after.router);
    rows.push(row(
        "router.scatter_ms",
        phase_mean_ms(router_before, router_after, "scatter"),
        "ms",
        "p50_ms (join_p50_ms) on join_mix",
        true,
    ));
    let submit: Vec<f64> = open
        .iter()
        .map(|(r, _)| r.submit_call.as_secs_f64() * 1e6)
        .collect();
    rows.push(row(
        "router.submit_us",
        percentile(&submit, 0.5),
        "us",
        "p50_ms on every workload",
        true,
    ));
    rows.push(row(
        "router.gather_ms",
        phase_mean_ms(router_before, router_after, "gather"),
        "ms",
        "p50_ms (join_p50_ms) on join_mix",
        false,
    ));
    let busy: Vec<f64> = pass
        .before
        .shards
        .iter()
        .zip(&pass.after.shards)
        .map(|(b, a)| {
            let (s0, _) = phase_totals(std::slice::from_ref(b), "execute");
            let (s1, _) = phase_totals(std::slice::from_ref(a), "execute");
            (s1 - s0) as f64
        })
        .collect();
    let imbalance = (busy.len() > 1).then(|| {
        let max = busy.iter().copied().fold(0.0, f64::max);
        max / mean(&busy).expect("several shards")
    });
    rows.push(row(
        "router.shard_imbalance",
        imbalance,
        "ratio",
        "saturated_rps on join_mix",
        false,
    ));

    // ── engine: direct calls on the replayed store ─────────────────
    let target = &spec.datasets[0];
    let rects = query_rects(spec, records);
    let probes = knn_probes(records, &rects);
    let store = &replay.store;
    let n = rects.len() as f64;
    let (_, range_t) = timed(|| {
        for q in &rects {
            std::hint::black_box(store.run_with(
                std::slice::from_ref(q),
                workers,
                true,
                config.query_algo,
                &config.auto_policy,
                SplitPolicy::Auto,
            ));
        }
    });
    rows.push(row(
        "engine.range_us",
        Some(range_t.as_secs_f64() * 1e6 / n),
        "us",
        "p50_ms (range_p50_ms) on read_mix",
        true,
    ));
    let (_, batched_t) = timed(|| {
        for chunk in rects.chunks(config.batch_max) {
            std::hint::black_box(store.run_with(
                chunk,
                workers,
                true,
                config.query_algo,
                &config.auto_policy,
                SplitPolicy::Auto,
            ));
        }
    });
    rows.push(row(
        "engine.range_batched_us",
        Some(batched_t.as_secs_f64() * 1e6 / n),
        "us",
        "saturated_rps on read_mix",
        true,
    ));
    let (_, knn_t) = timed(|| {
        for p in &probes {
            std::hint::black_box(store.run_knn_with(std::slice::from_ref(p), workers, true));
        }
    });
    rows.push(row(
        "engine.knn_us",
        Some(knn_t.as_secs_f64() * 1e6 / probes.len() as f64),
        "us",
        "p50_ms (knn_p50_ms) on read_mix",
        true,
    ));

    let plan = JoinPlan::new(target.partitioner.clone(), tree(), clip(), workers)
        .with_algo(JoinAlgo::Auto)
        .with_auto(config.auto_policy);
    let other_forest = spec
        .datasets
        .get(1)
        .map(|l| TileForest::build(&l.partitioner, &l.objects, tree(), clip(), workers));
    let join_ms = if spec.probe_sets.is_empty() {
        // One probe join of the run's range windows against the data.
        let times: Vec<f64> = (0..BUILD_REPS)
            .map(|_| {
                let (r, t) =
                    timed(|| partitioned_join_with(&plan, &rects, store.objects(), store.forest()));
                std::hint::black_box(r);
                ms(t)
            })
            .collect();
        percentile(&times, 0.5)
    } else {
        // Every join shape the run sent, timed once, weighted by how
        // often the run sent it.
        let mut counts = vec![0usize; spec.probe_sets.len() + 1];
        for r in records {
            match r.op {
                Op::Probe(set) => counts[set] += 1,
                Op::Cross => counts[spec.probe_sets.len()] += 1,
                _ => {}
            }
        }
        let mut total = 0.0;
        for (shape, &count) in counts.iter().enumerate().filter(|(_, c)| **c > 0) {
            let (_, t) = timed(|| match spec.probe_sets.get(shape) {
                Some(set) => std::hint::black_box(partitioned_join_with(
                    &plan,
                    set,
                    store.objects(),
                    store.forest(),
                )),
                None => std::hint::black_box(partitioned_join_forests(
                    &plan,
                    other_forest
                        .as_ref()
                        .expect("cross-joins need a second dataset"),
                    store.objects(),
                    store.forest(),
                )),
            });
            total += ms(t) * count as f64;
        }
        Some(total / counts.iter().sum::<usize>() as f64)
    };
    rows.push(row(
        "engine.join_ms",
        join_ms,
        "ms",
        "p50_ms (join_p50_ms) on join_mix",
        true,
    ));

    let items = [0u64; 4];
    let (_, dispatch_t) = timed(|| {
        for _ in 0..DISPATCH_CALLS {
            std::hint::black_box(map_chunked(
                workers,
                std::hint::black_box(&items),
                |_, chunk| chunk.len(),
            ));
        }
    });
    rows.push(row(
        "engine.pool_dispatch_us",
        Some(dispatch_t.as_secs_f64() * 1e6 / DISPATCH_CALLS as f64),
        "us",
        "p50_ms (range_p50_ms) on read_mix; no change on join_mix",
        true,
    ));

    let mut builds = Vec::new();
    let mut fresh = None;
    for _ in 0..BUILD_REPS {
        let (forest, t) = timed(|| {
            TileForest::build(
                &target.partitioner,
                &target.objects,
                tree(),
                clip(),
                workers,
            )
        });
        builds.push(ms(t));
        fresh = Some(forest);
    }
    let fresh = fresh.expect("at least one build");
    rows.push(row(
        "engine.forest_build_ms",
        percentile(&builds, 0.5),
        "ms",
        "setup_s on every workload; recover_s on write_mix",
        true,
    ));
    let covered: usize = rects
        .iter()
        .map(|q| {
            store
                .partitioner()
                .covering_tiles(q)
                .into_iter()
                .filter(|&t| store.forest().tree(t).is_some())
                .count()
        })
        .sum();
    rows.push(row(
        "engine.tiles_per_query",
        Some(covered as f64 / n),
        "tiles",
        "p50_ms (range_p50_ms) on read_mix",
        true,
    ));

    // ── joins: the sweep kernel over each tile's columns ───────────
    let (_, columns_t) = timed(|| {
        for t in 0..fresh.tile_count() {
            std::hint::black_box(fresh.columns(t));
        }
    });
    rows.push(row(
        "joins.columns_build_ms",
        Some(ms(columns_t)),
        "ms",
        "p99_ms (join_p99_ms) on join_mix",
        true,
    ));
    let left = other_forest.as_ref().unwrap_or(&fresh);
    let (mut tests, mut pairs) = (0u64, 0u64);
    let (_, sweep_t) = timed(|| {
        for t in 0..fresh.tile_count() {
            if let (Some(l), Some(r)) = (left.columns(t), fresh.columns(t)) {
                let result = sweep(&l, &r);
                tests += result.overlap_tests;
                pairs += result.pairs;
            }
        }
    });
    rows.push(row(
        "joins.sweep_ns_per_test",
        Some(sweep_t.as_secs_f64() * 1e9 / tests as f64),
        "ns",
        "p50_ms (join_p50_ms) on join_mix",
        true,
    ));
    rows.push(row(
        "joins.pairs_per_test",
        Some(pairs as f64 / tests as f64),
        "ratio",
        "p50_ms (join_p50_ms) on join_mix",
        true,
    ));

    // ── rtree: node accesses of clipped descents (paper Table I) ───
    let initial = DatasetStore::with_forest(
        target.partitioner.clone(),
        target.objects.clone(),
        std::sync::Arc::new(fresh),
    );
    let before_writes = descent_stats(&initial, &rects);
    let after_writes = descent_stats(store, &rects);
    rows.push(row(
        "rtree.nodes_per_query",
        Some((after_writes.internal_accesses + after_writes.leaf_accesses) as f64 / n),
        "nodes",
        "p50_ms (range_p50_ms) on read_mix",
        true,
    ));
    rows.push(row(
        "rtree.clip_prune_ratio",
        Some(clip_prune_ratio(&before_writes)),
        "ratio",
        "p50_ms (range_p50_ms) on read_mix",
        true,
    ));
    rows.push(row(
        "rtree.clip_prune_ratio_after_writes",
        Some(clip_prune_ratio(&after_writes)),
        "ratio",
        "p50_ms (range_p50_ms) on write_mix",
        true,
    ));
    rows.push(row(
        "rtree.results_per_leaf",
        Some(after_writes.results as f64 / after_writes.leaf_accesses as f64),
        "ratio",
        "p50_ms (range_p50_ms) on read_mix",
        true,
    ));

    // ── engine: apply_updates ──────────────────────────────────────
    let apply_us = if replay.apply_us.is_empty() {
        let mut times = Vec::new();
        let mut ids = Vec::new();
        for q in rects.iter().take(SYNTHETIC_UPDATES) {
            let (outcome, t) = timed(|| {
                replay
                    .store
                    .apply_updates(&[Update::Insert(*q)], tree(), clip())
            });
            times.push(t.as_secs_f64() * 1e6);
            ids.extend(outcome.results.iter().filter_map(|r| match r {
                cbb_engine::UpdateResult::Inserted(id) => Some(*id),
                _ => None,
            }));
        }
        for id in ids {
            let (_, t) = timed(|| {
                replay
                    .store
                    .apply_updates(&[Update::Delete(id)], tree(), clip())
            });
            times.push(t.as_secs_f64() * 1e6);
        }
        mean(&times)
    } else {
        mean(&replay.apply_us)
    };
    rows.push(row(
        "engine.apply_us",
        apply_us,
        "us",
        "p50_ms (write_p50_ms) on write_mix",
        true,
    ));

    // ── storage: encode, append and fsync on a scratch WAL ─────────
    let writes: Vec<Update<2>> = records
        .iter()
        .filter_map(|r| match r.op {
            Op::Insert(rect) => Some(Update::Insert(rect)),
            Op::Delete(i) => Some(Update::Delete(DataId(i))),
            _ => None,
        })
        .collect();
    let (b, a) = (&pass.before.report, &pass.after.report);
    let per_batch = if a.write_batches > b.write_batches {
        ((a.updates_applied - b.updates_applied) as f64
            / (a.write_batches - b.write_batches) as f64)
            .round()
            .max(1.0) as usize
    } else {
        1
    };
    let ops: Vec<Update<2>> = if writes.is_empty() {
        rects.iter().map(|q| Update::Insert(*q)).collect()
    } else {
        writes.clone()
    };
    let batches: Vec<&[Update<2>]> = ops.chunks(per_batch).cycle().take(WAL_BATCHES).collect();
    let (payloads, encode_t) = timed(|| {
        batches
            .iter()
            .enumerate()
            .map(|(v, batch)| encode_update_batch(DataVersion(v as u64 + 1), batch))
            .collect::<Vec<_>>()
    });
    rows.push(row(
        "storage.encode_us",
        Some(encode_t.as_secs_f64() * 1e6 / WAL_BATCHES as f64),
        "us",
        "p50_ms (write_p50_ms) on write_mix",
        true,
    ));
    let wal_path = work.join("scratch.wal");
    let mut wal = WalWriter::create(&wal_path).expect("create the scratch WAL");
    let (mut append_us, mut fsync_us) = (Vec::new(), Vec::new());
    for payload in &payloads {
        let (r, t) = timed(|| wal.append(payload));
        r.expect("append to the scratch WAL");
        append_us.push(t.as_secs_f64() * 1e6);
        let (r, t) = timed(|| wal.sync());
        r.expect("sync the scratch WAL");
        fsync_us.push(t.as_secs_f64() * 1e6);
    }
    drop(wal);
    std::fs::remove_file(&wal_path).expect("remove the scratch WAL");
    rows.push(row(
        "storage.wal_append_us",
        mean(&append_us),
        "us",
        "p50_ms (write_p50_ms) on write_mix; no change on read_mix",
        true,
    ));
    rows.push(row(
        "storage.fsync_us",
        percentile(&fsync_us, 0.5),
        "us",
        "p50_ms (write_p50_ms) on write_mix; no change on read_mix",
        true,
    ));
    let acked = records
        .iter()
        .filter(|r| {
            r.phase != RunPhase::Warmup && r.op.is_write() && matches!(r.outcome, Outcome::Done(_))
        })
        .count();
    let updates = a.updates_applied.saturating_sub(b.updates_applied);
    rows.push(row(
        "storage.fsyncs_per_write",
        (acked > 0).then(|| (a.wal_appends - b.wal_appends) as f64 / acked as f64),
        "ratio",
        "p99_ms (write_p99_ms), saturated_rps on write_mix",
        false,
    ));
    let wal_bytes = counter(&pass.after.shards, "cbb_wal_bytes_total")
        .saturating_sub(counter(&pass.before.shards, "cbb_wal_bytes_total"));
    rows.push(row(
        "storage.wal_bytes_per_update",
        (updates > 0 && wal_bytes > 0).then(|| wal_bytes as f64 / updates as f64),
        "bytes",
        "recover_s on write_mix",
        false,
    ));
    rows.push(row(
        "storage.replay_records",
        pass.restart.as_ref().map(|r| r.recovered_records as f64),
        "count",
        "recover_s on write_mix",
        false,
    ));
    rows
}
