//! Answer checking. A direct `DatasetStore`, built the way the service
//! builds its own, replays the run's writes in admission order and
//! answers every read; joins are checked against a 1×1 plan.
//!
//! A micro-batch applies all its writes before its reads, so a read can
//! observe writes admitted after it in the same batch. With one shard
//! and one dispatcher a batch is a contiguous run of the admission
//! order, and every completion reports its batch's size: the replay
//! cuts the admitted requests into the same batches, applies each
//! batch's writes in one `apply_updates` call (as the service does)
//! and checks the batch's reads against the state after it.

use std::time::Instant;

use cbb_engine::{
    partitioned_join, partitioned_join_with, DatasetStore, JoinAlgo, JoinPlan, TileForest,
    UniformGrid, Update, UpdateResult,
};
use cbb_geom::{Point, Rect};
use cbb_rtree::DataId;
use cbb_serve::{Completion, Request, Response, ShardedService};

use crate::drive::{Outcome, Record};
use crate::pass::{clip, request, tree, Ids, Tiling};
use crate::workload::{Op, Spec};

/// Mismatch descriptions kept verbatim; the rest are only counted.
const KEEP_MISMATCHES: usize = 5;

/// The verdict over one pass.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, canceled or answered `Failed`.
    pub failed: u64,
    /// Answers that disagreed with the replay.
    pub mismatches: u64,
    /// The first few mismatches, described.
    pub examples: Vec<String>,
}

impl Verdict {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.examples.len() < KEEP_MISMATCHES {
            self.examples.push(what);
        }
    }
}

/// The replayed target store after the run, plus what the replay timed.
pub struct Replay<P> {
    /// The target dataset after every admitted write.
    pub store: DatasetStore<2, P>,
    /// Microseconds per update: each batch's `apply_updates` call
    /// divided over its updates.
    pub apply_us: Vec<f64>,
}

/// Whether each read's response equals the store's answer: range ids
/// as sorted lists, kNN neighbours byte-equal.
fn answers<P: Tiling>(
    store: &DatasetStore<2, P>,
    reads: &[(&Op, &Response)],
    workers: usize,
) -> Vec<bool> {
    let ranges: Vec<Rect<2>> = reads
        .iter()
        .filter_map(|(op, _)| match op {
            Op::Range(q) => Some(*q),
            _ => None,
        })
        .collect();
    let probes: Vec<(Point<2>, usize)> = reads
        .iter()
        .filter_map(|(op, _)| match op {
            Op::Knn(c, k) => Some((*c, *k)),
            _ => None,
        })
        .collect();
    let mut ranges = store.run(&ranges, workers, true).results.into_iter();
    let mut knns = store.run_knn(&probes, workers).results.into_iter();
    reads
        .iter()
        .map(|(op, got)| match (op, got) {
            (Op::Range(_), Response::Range(ids)) => {
                *ids == ranges.next().expect("one answer per range")
            }
            (Op::Knn(..), Response::Knn(nn)) => *nn == knns.next().expect("one answer per probe"),
            _ => false,
        })
        .collect()
}

/// Pair counts a 1×1 plan gives for every probe set and for the
/// cross-join; `None` entries are never requested.
fn join_truth<P: Tiling>(spec: &Spec<P>, workers: usize) -> (Vec<u64>, Option<u64>) {
    let target = &spec.datasets[0].objects;
    let mut all = target.clone();
    if let Some(other) = spec.datasets.get(1) {
        all.extend_from_slice(&other.objects);
    }
    for set in &spec.probe_sets {
        all.extend_from_slice(set);
    }
    let domain = Rect::mbb_of(&all).expect("datasets are non-empty");
    let plan = JoinPlan::new(UniformGrid::new(domain, 1), tree(), clip(), workers)
        .with_algo(JoinAlgo::Auto);
    let forest = TileForest::build(&plan.partitioner, target, tree(), clip(), workers);
    let probes = spec
        .probe_sets
        .iter()
        .map(|set| partitioned_join_with(&plan, set, target, &forest).pairs)
        .collect();
    let cross = spec
        .datasets
        .get(1)
        .map(|other| partitioned_join(&plan, &other.objects, target).pairs);
    (probes, cross)
}

/// Check every answer of `records` and return the verdict with the
/// replayed store.
pub fn verify<P: Tiling>(
    spec: &Spec<P>,
    records: &[Record],
    workers: usize,
) -> (Verdict, Replay<P>) {
    let target = &spec.datasets[0];
    let mut store = DatasetStore::build(
        target.partitioner.clone(),
        &target.objects,
        tree(),
        clip(),
        workers,
    );
    let (probe_pairs, cross_pairs) = join_truth(spec, workers);
    let mut verdict = Verdict {
        attempted: records.len() as u64,
        ..Verdict::default()
    };
    let mut apply_us = Vec::new();
    let admitted: Vec<(usize, &Completion)> = records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match &r.outcome {
            Outcome::Done(c) => Some((i, c)),
            Outcome::Refused | Outcome::Canceled => None,
            Outcome::Pending => unreachable!("a finished pass has nothing outstanding"),
        })
        .collect();
    verdict.failed = (records.len() - admitted.len()) as u64;
    let batches: Vec<&[(usize, &Completion)]> = if records.iter().any(|r| r.op.is_write()) {
        assert_eq!(
            spec.shards, 1,
            "writes are replayed batch by batch on one shard"
        );
        let mut batches = Vec::new();
        let mut rest = &admitted[..];
        while let Some((_, first)) = rest.first() {
            let (batch, tail) = rest.split_at(first.batch_size.min(rest.len()));
            if batch.iter().any(|(_, c)| c.batch_size != first.batch_size) {
                verdict.mismatch(format!(
                    "admission order does not split into the reported batches near request {}",
                    batch[0].0
                ));
                return (verdict, Replay { store, apply_us });
            }
            batches.push(batch);
            rest = tail;
        }
        batches
    } else {
        vec![&admitted[..]]
    };

    for batch in batches {
        let writes: Vec<(usize, Update<2>, &Response)> = batch
            .iter()
            .filter_map(|&(i, c)| match records[i].op {
                _ if matches!(c.response, Response::Failed(_)) => None,
                Op::Insert(rect) => Some((i, Update::Insert(rect), &c.response)),
                Op::Delete(index) => Some((i, Update::Delete(DataId(index)), &c.response)),
                _ => None,
            })
            .collect();
        if !writes.is_empty() {
            let updates: Vec<Update<2>> = writes.iter().map(|(_, u, _)| *u).collect();
            let started = Instant::now();
            let outcome = store.apply_updates(&updates, tree(), clip());
            let per_update = started.elapsed().as_secs_f64() * 1e6 / updates.len() as f64;
            apply_us.extend(std::iter::repeat_n(per_update, updates.len()));
            for ((i, _, got), want) in writes.iter().zip(&outcome.results) {
                let same = match (want, got) {
                    (UpdateResult::Inserted(want), Response::Inserted(got)) => *got == Some(*want),
                    (UpdateResult::Deleted(want), Response::Deleted(got)) => got == want,
                    _ => false,
                };
                if !same {
                    verdict.mismatch(format!(
                        "request {i} ({:?}) answered {got:?}, replay gave {want:?}",
                        records[*i].op
                    ));
                }
            }
        }
        let mut reads: Vec<(&Op, &Response)> = Vec::new();
        for &(i, completion) in batch {
            let op = &records[i].op;
            match (op, &completion.response) {
                (_, Response::Failed(_)) => verdict.failed += 1,
                (Op::Insert(_) | Op::Delete(_), _) => {}
                (Op::Range(_) | Op::Knn(..), response) => reads.push((op, response)),
                (Op::Probe(set), Response::Join(result)) => {
                    if result.pairs != probe_pairs[*set] {
                        verdict.mismatch(format!(
                            "request {i} (probe set {set}) gave {} pairs, 1×1 plan gives {}",
                            result.pairs, probe_pairs[*set]
                        ));
                    }
                }
                (Op::Cross, Response::Join(result)) => {
                    let want = cross_pairs.expect("cross-joins have a second dataset");
                    if result.pairs != want {
                        verdict.mismatch(format!(
                            "request {i} (cross-join) gave {} pairs, 1×1 plan gives {want}",
                            result.pairs
                        ));
                    }
                }
                (op, response) => {
                    verdict.mismatch(format!("request {i} ({op:?}) answered {response:?}"))
                }
            }
        }
        for ((op, _), ok) in reads.iter().zip(answers(&store, &reads, workers)) {
            if !ok {
                verdict.mismatch(format!("{op:?} disagrees with the replay"));
            }
        }
    }
    (verdict, Replay { store, apply_us })
}

/// Check a restarted durable service against the replayed store: the
/// same live objects, and the same answers to a sample of the run's
/// reads.
pub fn verify_recovered<P: Tiling>(
    service: &ShardedService<2, P>,
    spec: &Spec<P>,
    records: &[Record],
    replay: &DatasetStore<2, P>,
    workers: usize,
    verdict: &mut Verdict,
) {
    let name = spec.datasets[0].name;
    let Some(target) = service.dataset_id(name) else {
        verdict.mismatch(format!("dataset {name} was not recovered"));
        return;
    };
    let ids = Ids {
        target,
        other: spec
            .datasets
            .get(1)
            .and_then(|l| service.dataset_id(l.name)),
    };
    if service.dataset_live_count(target) != Some(replay.live_count()) {
        verdict.mismatch(format!(
            "recovered {:?} live objects, replay has {}",
            service.dataset_live_count(target),
            replay.live_count()
        ));
    }
    let everything = Rect::mbb_of(&replay.live_rects()).expect("the dataset is not empty");
    let mut sample = vec![Op::Range(everything)];
    sample.extend(
        records
            .iter()
            .filter(|r| matches!(r.op, Op::Range(_) | Op::Knn(..)))
            .step_by(16)
            .take(512)
            .map(|r| r.op.clone()),
    );
    let responses: Vec<Response> = sample
        .iter()
        .map(|op| {
            let req: Request<2, P> = request(op, ids, &spec.probe_sets);
            service
                .submit(req)
                .expect("recovered service is open")
                .wait()
                .expect("recovered service answers")
                .response
        })
        .collect();
    let got: Vec<(&Op, &Response)> = sample.iter().zip(&responses).collect();
    for ((op, _), ok) in got.iter().zip(answers(replay, &got, workers)) {
        if !ok {
            verdict.mismatch(format!(
                "recovered service disagrees with the replay on {op:?}"
            ));
        }
    }
}
