//! Oracle tests for batched range execution: every batch answered
//! through [`DatasetStore::run_with`] — per-tile grouping plus one
//! clipped-tree descent per query — must be **byte-equal** to a
//! brute-force scan across every partitioner, clip setting, split
//! policy and worker count, including empty tiles, point-extent queries
//! and queries straddling tile boundaries, with each query's results in
//! the canonical order (ascending by id). Counters must not move under
//! decomposition. The kNN half pins the clipped-MBB prefilter:
//! identical answers, no more node accesses than the plain root-MBB
//! ordering.

use cbb_core::{ClipConfig, ClipMethod};
use cbb_engine::{
    AdaptiveGrid, AutoPolicy, BatchOutcome, DatasetStore, Partitioner, QuadtreePartitioner,
    QueryAlgo, SplitPolicy, UniformGrid,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{AccessStats, DataId, TreeConfig, Variant};

fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
    Rect::new(Point([lx, ly]), Point([hx, hy]))
}

const WORLD: Rect<2> = Rect {
    lo: Point([0.0, 0.0]),
    hi: Point([500.0, 500.0]),
};

/// Clustered boxes: most mass in one corner so coarse grids carry many
/// EMPTY tiles, plus a sprinkle of wide tile-straddling rectangles.
fn boxes(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            if i % 7 == 0 {
                // Wide straddler: up to 200 across — spans tiles.
                let x = rng.gen_range(0.0, 280.0);
                let y = rng.gen_range(0.0, 280.0);
                let w = rng.gen_range(40.0, 200.0);
                let h = rng.gen_range(40.0, 200.0);
                r2(x, y, x + w, y + h)
            } else {
                // Clustered in the lower-left 150×150 corner.
                let x = rng.gen_range(0.0, 140.0);
                let y = rng.gen_range(0.0, 140.0);
                let w = rng.gen_range(0.5, 10.0);
                let h = rng.gen_range(0.5, 10.0);
                r2(x, y, x + w, y + h)
            }
        })
        .collect()
}

/// Mixed query batch: point-extent probes, tile-sized rects, wide
/// straddlers, and a few out-of-cluster rects that hit empty tiles.
fn queries(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen_range(0.0, 480.0);
            let y = rng.gen_range(0.0, 480.0);
            match i % 4 {
                // Degenerate point-extent query.
                0 => r2(x, y, x, y),
                // Small rect.
                1 => {
                    let s = rng.gen_range(1.0, 20.0);
                    r2(x, y, x + s, y + s)
                }
                // Wide straddler crossing several tile boundaries.
                2 => {
                    let w = rng.gen_range(100.0, 300.0);
                    r2(x, y, (x + w).min(500.0), (y + w * 0.5).min(500.0))
                }
                // Thin sliver along one axis.
                _ => r2(x, y, (x + 250.0).min(500.0), y + 0.25),
            }
        })
        .collect()
}

const SPLITS: [SplitPolicy; 3] = [SplitPolicy::Never, SplitPolicy::Auto, SplitPolicy::Above(0)];

fn run<P: Partitioner<2>>(
    store: &DatasetStore<2, P>,
    qs: &[Rect<2>],
    workers: usize,
    use_clips: bool,
    split: SplitPolicy,
) -> BatchOutcome {
    store.run_with(
        qs,
        workers,
        use_clips,
        QueryAlgo::Descend,
        &AutoPolicy::default(),
        split,
    )
}

/// The oracle: every object intersecting the query, ascending by id.
fn brute_force(objects: &[Rect<2>], q: &Rect<2>) -> Vec<DataId> {
    (0..objects.len())
        .filter(|&i| objects[i].intersects(q))
        .map(|i| DataId(i as u32))
        .collect()
}

fn check_range_oracle<P: Partitioner<2>>(
    store: &DatasetStore<2, P>,
    objects: &[Rect<2>],
    label: &str,
) {
    let qs = queries(64, 77);
    let expected: Vec<Vec<DataId>> = qs.iter().map(|q| brute_force(objects, q)).collect();
    assert!(
        expected.iter().any(|ids| ids.len() > 1),
        "{label}: the workload must produce multi-object answers"
    );
    for use_clips in [true, false] {
        for split in SPLITS {
            for workers in [1, 3] {
                let out = run(store, &qs, workers, use_clips, split);
                assert_eq!(
                    out.results, expected,
                    "{label}: {split:?}/workers={workers}/clips={use_clips} \
                     must be byte-equal to the brute-force scan"
                );
            }
        }
    }
    // The default entry point is the same path.
    assert_eq!(store.run(&qs, 2, true).results, expected, "{label}: run()");
}

#[test]
fn batched_ranges_match_brute_force_on_all_partitioners() {
    let objects = boxes(900, 21);
    let tree = TreeConfig::tiny(Variant::RStar);
    let clip = ClipConfig::paper_default::<2>(ClipMethod::Stairline);

    let uniform = DatasetStore::build(UniformGrid::new(WORLD, 5), &objects, tree, clip, 2);
    check_range_oracle(&uniform, &objects, "uniform");

    let adaptive = DatasetStore::build(
        AdaptiveGrid::from_sample(WORLD, [5, 5], &objects),
        &objects,
        tree,
        clip,
        2,
    );
    check_range_oracle(&adaptive, &objects, "adaptive");

    let quadtree = DatasetStore::build(
        QuadtreePartitioner::build(WORLD, &objects, 120),
        &objects,
        tree,
        clip,
        2,
    );
    check_range_oracle(&quadtree, &objects, "quadtree");
}

/// Counters are a pure function of the workload: identical across
/// worker counts and split policies (the chunk-sum exactness of
/// per-query descents), and the per-query counters sum to the batch
/// total.
#[test]
fn range_counters_are_exact_under_decomposition() {
    let objects = boxes(700, 22);
    let store = DatasetStore::build(
        UniformGrid::new(WORLD, 4),
        &objects,
        TreeConfig::tiny(Variant::RRStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        2,
    );
    let qs = queries(48, 23);
    for use_clips in [true, false] {
        let base = run(&store, &qs, 1, use_clips, SplitPolicy::Never);
        assert!(base.stats.leaf_accesses > 0);
        assert_eq!(
            base.stats,
            AccessStats::sum(&base.per_query),
            "per-query counters must sum to the batch total"
        );
        for split in SPLITS {
            for workers in [1, 2, 5] {
                let out = run(&store, &qs, workers, use_clips, split);
                assert_eq!(out, base, "{split:?}/workers={workers}/clips={use_clips}");
            }
        }
    }
}

/// Empty batches and batches probing only empty space stay exact under
/// every split policy.
#[test]
fn degenerate_batches_answer_identically() {
    let objects = boxes(300, 24);
    let store = DatasetStore::build(
        UniformGrid::new(WORLD, 4),
        &objects,
        TreeConfig::tiny(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        1,
    );
    let empty_space = vec![r2(490.0, 490.0, 499.0, 499.0); 8];
    for split in SPLITS {
        let none = run(&store, &[], 2, true, split);
        assert!(none.results.is_empty());
        assert_eq!(none.stats, AccessStats::new());
        let out = run(&store, &empty_space, 2, true, split);
        assert_eq!(out.results, vec![Vec::<DataId>::new(); empty_space.len()]);
    }
}

/// The clipped-MBB kNN prefilter: byte-equal neighbour lists, and node
/// accesses never above the plain root-MBB tile ordering. The diagonal
/// workload leaves large dead corners in every tile's root MBB, so the
/// tighter bound must actually skip trees (strictly fewer accesses).
#[test]
fn knn_clipped_prefilter_is_exact_and_cheaper() {
    let mut rng = SplitMix64::new(25);
    // Diagonal band: tiles' root MBBs are mostly dead space off the
    // diagonal — the shape the paper's clipping targets.
    let objects: Vec<Rect<2>> = (0..1_200)
        .map(|_| {
            let t = rng.gen_range(0.0, 480.0);
            let d = rng.gen_range(-8.0, 8.0);
            let s = rng.gen_range(0.5, 6.0);
            let (x, y) = (t, (t + d).clamp(0.0, 480.0));
            r2(x, y, x + s, y + s)
        })
        .collect();
    let store = DatasetStore::build(
        UniformGrid::new(WORLD, 4),
        &objects,
        TreeConfig::tiny(Variant::RStar),
        ClipConfig::paper_default::<2>(ClipMethod::Stairline),
        2,
    );
    // Probes off the diagonal, where the plain root-MBB MINDIST
    // underestimates badly.
    let probes: Vec<(Point<2>, usize)> = (0..40)
        .map(|i| {
            let x = rng.gen_range(0.0, 480.0);
            let y = rng.gen_range(0.0, 480.0);
            (Point([x, y]), 1 + i % 7)
        })
        .collect();
    for workers in [1, 3] {
        let plain = store.run_knn_with(&probes, workers, false);
        let clipped = store.run_knn_with(&probes, workers, true);
        assert_eq!(clipped.results, plain.results, "answers must be identical");
        let accesses = |s: &AccessStats| s.leaf_accesses + s.internal_accesses;
        for (c, p) in clipped.per_query.iter().zip(&plain.per_query) {
            assert!(
                accesses(c) <= accesses(p),
                "prefilter must never add node accesses"
            );
        }
        assert!(
            accesses(&clipped.stats) < accesses(&plain.stats),
            "diagonal data must make the clipped prefilter strictly cheaper \
             ({} vs {})",
            accesses(&clipped.stats),
            accesses(&plain.stats)
        );
        // The default path IS the prefiltered one.
        assert_eq!(store.run_knn(&probes, workers), clipped);
    }
}
