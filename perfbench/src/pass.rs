//! One pass of a workload against a live service: set-up (repeated),
//! warm-up, the open-loop phase, the saturation phase and, on a
//! durable workload, shutdown and a timed restart.

use std::path::Path;
use std::time::{Duration, Instant};

use cbb_core::{ClipConfig, ClipMethod};
use cbb_engine::{DatasetId, JoinAlgo, Partitioner, PersistPartitioner};
use cbb_geom::Rect;
use cbb_rtree::{DataId, TreeConfig, Variant};
use cbb_serve::{Request, Scrape, ServiceBuilder, ServiceReport, ShardedService};

use crate::drive::{Generator, Phase, Record};
use crate::workload::{Layer, Op, Spec};

/// Everything a served partitioner must be.
pub trait Tiling:
    Partitioner<2> + PersistPartitioner + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static
{
}

impl<T> Tiling for T where
    T: Partitioner<2>
        + PersistPartitioner
        + Clone
        + PartialEq
        + std::fmt::Debug
        + Send
        + Sync
        + 'static
{
}

/// Set-ups timed before the phases (one more serves the pass) and
/// after them; the caller times a last group later still. Spreading
/// them over the run keeps one slow stretch of the machine (or its
/// disk) from setting the median.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 4;
/// Requests outstanding during the warm-up.
const WARMUP_WINDOW: usize = 32;

/// The per-tile index every workload serves: R*-tree with stairline
/// clip points (the paper's configuration).
pub fn tree() -> TreeConfig<2> {
    TreeConfig::paper_default(Variant::RStar)
}

/// Stairline clipping at the paper's defaults.
pub fn clip() -> ClipConfig {
    ClipConfig::paper_default::<2>(ClipMethod::Stairline)
}

/// The service at its shipping defaults; only the deployment settings
/// (shard count, durability root) are set.
pub fn builder(shards: usize, root: Option<&Path>) -> ServiceBuilder {
    let builder = ServiceBuilder::new().shards(shards);
    match root {
        Some(root) => builder.durability(root),
        None => builder,
    }
}

fn start<P: Tiling>(
    shards: usize,
    root: Option<&Path>,
    layers: Vec<Layer<P>>,
) -> ShardedService<2, P> {
    let service = builder(shards, root).build_catalog::<2, P>(tree(), clip());
    for layer in layers {
        service
            .create_dataset(layer.name, layer.partitioner, layer.objects)
            .expect("fresh catalog has no name clash");
    }
    service
}

/// Dataset ids of a started service.
#[derive(Clone, Copy, Debug)]
pub struct Ids {
    /// `datasets[0]`.
    pub target: DatasetId,
    /// `datasets[1]`, when the workload has one.
    pub other: Option<DatasetId>,
}

impl Ids {
    fn resolve<P: Tiling>(service: &ShardedService<2, P>, spec: &Spec<P>) -> Self {
        let id = |i: usize| {
            spec.datasets
                .get(i)
                .map(|l| service.dataset_id(l.name).expect("dataset was created"))
        };
        Ids {
            target: id(0).expect("a workload has a dataset"),
            other: id(1),
        }
    }
}

/// The service request for `op`.
pub fn request<P>(op: &Op, ids: Ids, probe_sets: &[Vec<Rect<2>>]) -> Request<2, P> {
    let dataset = ids.target;
    match op {
        Op::Range(query) => Request::Range {
            dataset,
            query: *query,
            use_clips: true,
        },
        Op::Knn(center, k) => Request::Knn {
            dataset,
            center: *center,
            k: *k,
        },
        Op::Insert(rect) => Request::Insert {
            dataset,
            rect: *rect,
        },
        Op::Delete(index) => Request::Delete {
            dataset,
            id: DataId(*index),
        },
        Op::Probe(set) => Request::Join {
            dataset,
            probes: probe_sets[*set].clone(),
            algo: JoinAlgo::Auto,
            use_clips: true,
        },
        Op::Cross => Request::CrossJoin {
            left: ids.other.expect("cross-joins need a second dataset"),
            right: dataset,
            algo: JoinAlgo::Auto,
            use_clips: true,
        },
    }
}

/// Counters read at a phase boundary.
pub struct Snapshot {
    /// Aggregate report.
    pub report: ServiceReport,
    /// Router telemetry.
    pub router: Scrape,
    /// Per-shard telemetry.
    pub shards: Vec<Scrape>,
}

impl Snapshot {
    fn take<P: Tiling>(service: &ShardedService<2, P>) -> Self {
        Snapshot {
            report: service.report(),
            router: service.scrape(),
            shards: service.shard_scrapes(),
        }
    }
}

/// A durable workload's restart.
pub struct Restart<P> {
    /// The service recovered from the durability root.
    pub service: ShardedService<2, P>,
    /// Seconds from restart until ready.
    pub recover_s: f64,
    /// WAL records the restart replayed.
    pub recovered_records: u64,
}

/// What one pass measured.
pub struct Pass<P> {
    /// Every request, in admission order.
    pub records: Vec<Record>,
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Open-loop phase `(start, end)` offsets.
    pub open: (Duration, Duration),
    /// Saturation phase `(start, end)` offsets.
    pub saturation: (Duration, Duration),
    /// After the warm-up.
    pub before: Snapshot,
    /// After the open-loop phase.
    pub mid: Snapshot,
    /// After the saturation phase.
    pub after: Snapshot,
    /// The restarted service (durable workloads).
    pub restart: Option<Restart<P>>,
}

/// Run one pass of `spec`. `work` is an empty scratch directory for
/// durability roots; `time_submit` also times every submit call (the
/// traced pass).
fn root(work: &Path, rep: usize) -> std::path::PathBuf {
    work.join(format!("setup-{rep}"))
}

/// Set up once, timed; a durable set-up gets a fresh root.
fn set_up<P: Tiling>(spec: &Spec<P>, work: &Path, rep: usize) -> (ShardedService<2, P>, f64) {
    let layers = spec.datasets.clone();
    let dir = spec.durable.then(|| root(work, rep));
    let started = Instant::now();
    let service = start(spec.shards, dir.as_deref(), layers);
    (service, started.elapsed().as_secs_f64())
}

/// Time `count` set-ups that serve nothing (roots `first..`), shutting
/// each down. Their durability roots stay until the run's scratch
/// directory is removed: deleting files makes the next fsync on this
/// file system wait for the deletion, which would land in a timed
/// set-up.
pub fn time_setups<P: Tiling>(spec: &Spec<P>, work: &Path, first: usize, count: usize) -> Vec<f64> {
    (first..first + count)
        .map(|rep| {
            let (service, s) = set_up(spec, work, rep);
            service.shutdown();
            s
        })
        .collect()
}

/// Run one pass of `spec`. `work` is an empty scratch directory for
/// durability roots; `time_submit` also times every submit call (the
/// traced pass). Set-up roots `0..SETUPS_BEFORE + SETUPS_AFTER + 1`
/// are used here.
pub fn run<P: Tiling>(spec: &Spec<P>, work: &Path, time_submit: bool) -> Pass<P> {
    let mut setup_s = time_setups(spec, work, 0, SETUPS_BEFORE);
    let served = SETUPS_BEFORE;
    let (service, s) = set_up(spec, work, served);
    setup_s.push(s);
    let ids = Ids::resolve(&service, spec);

    let mut load = Generator::new(
        |op: &Op| service.submit(request(op, ids, &spec.probe_sets)).ok(),
        time_submit,
    );
    load.closed_loop(&spec.warmup, WARMUP_WINDOW, None, Phase::Warmup);
    let before = Snapshot::take(&service);
    let open = load.open_loop(&spec.open, Duration::from_secs_f64(spec.open_s));
    let mid = Snapshot::take(&service);
    let saturation = load.closed_loop(
        &spec.saturation,
        spec.window,
        Some(Duration::from_secs_f64(spec.saturation_s)),
        Phase::Saturation,
    );
    let after = Snapshot::take(&service);
    let records = std::mem::take(&mut load.records);
    drop(load);
    service.shutdown();
    let restart = spec.durable.then(|| {
        let started = Instant::now();
        let service =
            builder(spec.shards, Some(&root(work, served))).build_catalog::<2, P>(tree(), clip());
        let recover_s = started.elapsed().as_secs_f64();
        Restart {
            recovered_records: service.report().recovered_records,
            service,
            recover_s,
        }
    });
    setup_s.extend(time_setups(spec, work, served + 1, SETUPS_AFTER));
    Pass {
        records,
        setup_s,
        open,
        saturation,
        before,
        mid,
        after,
        restart,
    }
}
