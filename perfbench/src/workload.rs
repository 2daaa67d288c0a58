//! The three workloads, generated from a seed. The program under test
//! only ever sees what these functions produce: objects, partitioners
//! fitted to them, and the request stream.

use cbb_datasets::skew::clustered_with_layout;
use cbb_datasets::stream::{query_stream, StreamKind, StreamProfile};
use cbb_datasets::{par, rea, Dataset, DATASETS_2D};
use cbb_engine::{AdaptiveGrid, UniformGrid};
use cbb_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request of a workload, independent of dataset ids.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Range query on the target dataset (clipped probing).
    Range(Rect<2>),
    /// kNN probe on the target dataset.
    Knn(Point<2>, usize),
    /// Insert into the target dataset.
    Insert(Rect<2>),
    /// Delete the target dataset's base object with this index.
    Delete(u32),
    /// Join probe set `i` against the target dataset.
    Probe(usize),
    /// Join the second dataset (probe side) with the target dataset.
    Cross,
}

impl Op {
    /// Whether the op mutates the target dataset.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert(_) | Op::Delete(_))
    }

    /// The kind name printed in per-kind metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Range(_) => "range",
            Op::Knn(..) => "knn",
            Op::Insert(_) | Op::Delete(_) => "write",
            Op::Probe(_) | Op::Cross => "join",
        }
    }
}

/// A named dataset with the partitioner fitted to it.
#[derive(Clone)]
pub struct Layer<P> {
    /// Catalog name.
    pub name: &'static str,
    /// Its tiling.
    pub partitioner: P,
    /// Its objects (base index = initial `DataId`).
    pub objects: Vec<Rect<2>>,
}

/// Everything one run replays. `datasets[0]` is the target of range,
/// kNN, write and probe-join requests; a cross-join joins
/// `datasets[1]` (probe side) with it.
pub struct Spec<P> {
    /// Workload name.
    pub name: &'static str,
    /// Datasets created at set-up, in order.
    pub datasets: Vec<Layer<P>>,
    /// Shard count (a deployment setting).
    pub shards: usize,
    /// Whether the service persists under a durability root.
    pub durable: bool,
    /// Probe sets referenced by [`Op::Probe`].
    pub probe_sets: Vec<Vec<Rect<2>>>,
    /// Read-only requests sent before timing starts (caches fill).
    pub warmup: Vec<Op>,
    /// Open-loop requests with their due offsets in milliseconds.
    pub open: Vec<(f64, Op)>,
    /// Requests for the saturation phase, sent in order.
    pub saturation: Vec<Op>,
    /// Mean open-loop arrival rate.
    pub rate_hz: f64,
    /// Burstiness of the open-loop arrival schedule.
    pub burstiness: f64,
    /// Requests kept outstanding in the saturation phase.
    pub window: usize,
    /// Length of the open-loop phase.
    pub open_s: f64,
    /// Length of the saturation phase.
    pub saturation_s: f64,
}

/// Sizes that differ between a full run and a smoke run.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Objects per dataset.
    pub objects: usize,
    /// Open-loop rate scale (1.0 for a full run).
    pub rate_scale: f64,
}

impl Size {
    /// Full size, or the seconds-long smoke size.
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Size {
                objects: 6_000,
                rate_scale: 0.5,
            }
        } else {
            Size {
                objects: 100_000,
                rate_scale: 1.0,
            }
        }
    }
}

/// Cluster layout shared by every seed: the "city map" stays put while
/// the seed draws the objects and the requests.
const LAYOUT_SEED: u64 = 0x00C1_71E5;
/// Saturation requests generated per second of saturation phase; more
/// than any workload completes, so the phase never runs dry.
const SATURATION_OPS_PER_S: [f64; 3] = [100_000.0, 100_000.0, 20_000.0];

fn clustered_data(size: Size, seed: u64) -> Dataset<2> {
    clustered_with_layout::<2>(size.objects, 8, 20_000.0, 0.1, LAYOUT_SEED, seed)
}

fn clustered_layer(data: &Dataset<2>) -> Layer<AdaptiveGrid<2>> {
    Layer {
        name: "clustered",
        partitioner: AdaptiveGrid::from_sample(data.domain, [6, 6], &data.boxes),
        objects: data.boxes.clone(),
    }
}

/// Split a timed stream into the open-loop part (due before `open_s`)
/// and the rest, which the saturation phase sends back to back.
fn split_stream(stream: Vec<(f64, Op)>, open_s: f64) -> (Vec<(f64, Op)>, Vec<Op>) {
    let mut open = Vec::new();
    let mut rest = Vec::new();
    for (at, op) in stream {
        if at < open_s * 1e3 {
            open.push((at, op));
        } else {
            rest.push(op);
        }
    }
    (open, rest)
}

fn stream_ops(stream: Vec<cbb_datasets::TimedQuery<2>>) -> Vec<(f64, Op)> {
    stream
        .into_iter()
        .map(|q| {
            let op = match q.kind {
                StreamKind::Range(r) => Op::Range(r),
                StreamKind::Knn(c, k) => Op::Knn(c, k),
                StreamKind::Insert(r) => Op::Insert(r),
                StreamKind::Delete(i) => Op::Delete(i),
            };
            (q.at_ms, op)
        })
        .collect()
}

fn stream_count(rate_hz: f64, open_s: f64, saturation_s: f64, sat_ops_per_s: f64) -> usize {
    (rate_hz * open_s * 1.5 + sat_ops_per_s * saturation_s) as usize + 256
}

/// Phase lengths for a run of `seconds`: half open loop, half
/// saturation.
pub fn phase_lengths(seconds: f64) -> (f64, f64) {
    (seconds * 0.5, seconds * 0.5)
}

/// `read_mix`: one clustered dataset, 80 % range / 20 % kNN, no writes.
pub fn read_mix(size: Size, seed: u64, seconds: f64) -> Spec<AdaptiveGrid<2>> {
    let data = clustered_data(size, seed);
    let (open_s, saturation_s) = phase_lengths(seconds);
    let profile = StreamProfile {
        mean_rate_hz: 500.0 * size.rate_scale,
        burstiness: 4.0,
        knn_fraction: 0.2,
        knn_k: 10,
        extent_frac: 0.02,
        write_fraction: 0.0,
        delete_share: 0.5,
    };
    let n = stream_count(
        profile.mean_rate_hz,
        open_s,
        saturation_s,
        SATURATION_OPS_PER_S[0],
    );
    let stream = stream_ops(query_stream(&data, n, &profile, seed));
    let (open, saturation) = split_stream(stream, open_s);
    let warmup = warmup_reads(&data, &profile, seed);
    Spec {
        name: "read_mix",
        datasets: vec![clustered_layer(&data)],
        shards: 1,
        durable: false,
        probe_sets: Vec::new(),
        warmup,
        open,
        saturation,
        rate_hz: profile.mean_rate_hz,
        burstiness: profile.burstiness,
        window: 256,
        open_s,
        saturation_s,
    }
}

/// `write_mix`: the `read_mix` data shape with durability on; half the
/// requests are inserts and deletes.
pub fn write_mix(size: Size, seed: u64, seconds: f64) -> Spec<AdaptiveGrid<2>> {
    let data = clustered_data(size, seed);
    let (open_s, saturation_s) = phase_lengths(seconds);
    let profile = StreamProfile {
        mean_rate_hz: 500.0 * size.rate_scale,
        burstiness: 4.0,
        knn_fraction: 0.2,
        knn_k: 10,
        extent_frac: 0.02,
        write_fraction: 0.5,
        delete_share: 0.5,
    };
    let n = stream_count(
        profile.mean_rate_hz,
        open_s,
        saturation_s,
        SATURATION_OPS_PER_S[1],
    );
    let stream = stream_ops(query_stream(&data, n, &profile, seed));
    let (open, saturation) = split_stream(stream, open_s);
    let warmup = warmup_reads(&data, &profile, seed);
    Spec {
        name: "write_mix",
        datasets: vec![clustered_layer(&data)],
        shards: 1,
        durable: true,
        probe_sets: Vec::new(),
        warmup,
        open,
        saturation,
        rate_hz: profile.mean_rate_hz,
        burstiness: profile.burstiness,
        window: 256,
        open_s,
        saturation_s,
    }
}

/// Read-only requests over `data` for the untimed warm-up.
fn warmup_reads(data: &Dataset<2>, profile: &StreamProfile, seed: u64) -> Vec<Op> {
    let read_only = StreamProfile {
        write_fraction: 0.0,
        ..*profile
    };
    stream_ops(query_stream(data, 512, &read_only, seed ^ 0x3A57_0000))
        .into_iter()
        .map(|(_, op)| op)
        .collect()
}

/// A paper dataset at `n` objects, drawn from `seed` and densified to
/// the paper's spatial density (as the dataset registry does).
fn paper_like(name: &str, n: usize, seed: u64) -> Dataset<2> {
    let paper = DATASETS_2D
        .iter()
        .find(|(known, _)| *known == name)
        .expect("a 2-d paper dataset")
        .1;
    let data = match name {
        "rea02" => rea::streets2d(n, seed),
        _ => par::generate::<2>(n, seed),
    };
    let factor = data.density_restoring_factor(paper);
    data.densified(factor)
}

/// Probe sets per `join_mix` run, cycling through [`PROBE_SIZES`]: the
/// sizes are fixed so that every seed has the same mix of join costs;
/// the seed draws the probes.
const PROBE_SETS: usize = 60;
const PROBE_SIZES: [usize; 6] = [16, 32, 64, 128, 256, 512];
/// Share of `join_mix` requests that are cross-joins.
const CROSS_SHARE: f64 = 0.05;

/// `join_mix`: `rea02`-style streets and `par02`-style parcels in one
/// catalog on 2 shards; probe joins of street samples against the
/// parcels plus streets ⋈ parcels cross-joins, all `JoinAlgo::Auto`.
pub fn join_mix(size: Size, seed: u64, seconds: f64) -> Spec<UniformGrid<2>> {
    let n = size.objects * 3 / 20;
    let streets = paper_like("rea02", n, seed ^ 0x57EE_7000);
    let parcels = paper_like("par02", n, seed ^ 0xFA2C_E100);
    let domain = streets.domain.union(&parcels.domain);
    let grid = UniformGrid::new(domain, 8);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0901_7000);
    let probe_sets: Vec<Vec<Rect<2>>> = (0..PROBE_SETS)
        .map(|i| {
            (0..PROBE_SIZES[i % PROBE_SIZES.len()])
                .map(|_| streets.boxes[rng.gen_range(0..streets.len())])
                .collect()
        })
        .collect();
    let (open_s, saturation_s) = phase_lengths(seconds);
    let profile = StreamProfile {
        mean_rate_hz: 100.0 * size.rate_scale,
        burstiness: 4.0,
        knn_fraction: 0.0,
        ..StreamProfile::default()
    };
    let count = stream_count(
        profile.mean_rate_hz,
        open_s,
        saturation_s,
        SATURATION_OPS_PER_S[2],
    );
    let stream: Vec<(f64, Op)> = query_stream(&streets, count, &profile, seed)
        .into_iter()
        .map(|q| {
            let op = if rng.gen_bool(CROSS_SHARE) {
                Op::Cross
            } else {
                Op::Probe(rng.gen_range(0..PROBE_SETS))
            };
            (q.at_ms, op)
        })
        .collect();
    let (open, saturation) = split_stream(stream, open_s);
    let mut warmup: Vec<Op> = (0..PROBE_SETS).map(Op::Probe).collect();
    warmup.push(Op::Cross);
    Spec {
        name: "join_mix",
        datasets: vec![
            Layer {
                name: "parcels",
                partitioner: grid,
                objects: parcels.boxes,
            },
            Layer {
                name: "streets",
                partitioner: grid,
                objects: streets.boxes,
            },
        ],
        shards: 2,
        durable: false,
        probe_sets,
        warmup,
        open,
        saturation,
        rate_hz: profile.mean_rate_hz,
        burstiness: profile.burstiness,
        window: 32,
        open_s,
        saturation_s,
    }
}
