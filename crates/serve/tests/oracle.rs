//! Service oracle: every answer produced through the queue→batch
//! pipeline is byte-identical to calling the engine directly with the
//! same request. Batching changes scheduling, never results.

use std::time::Duration;

use cbb_core::{ClipConfig, ClipMethod};
use cbb_datasets::skew::clustered_with_layout;
use cbb_engine::{
    partitioned_join, AdaptiveGrid, AutoPolicy, DatasetStore, JoinAlgo, JoinPlan, SplitPolicy,
};
use cbb_geom::{Point, Rect, SplitMix64};
use cbb_rtree::{DataId, TreeConfig, Variant};
use cbb_serve::{Request, RequestError, Response, ServiceBuilder, ServiceConfig, Update};

const EXEC_WORKERS: usize = 3;

struct Fixture {
    objects: Vec<Rect<2>>,
    partitioner: AdaptiveGrid<2>,
    tree: TreeConfig<2>,
    clip: ClipConfig,
}

fn fixture() -> Fixture {
    let data = clustered_with_layout::<2>(2_500, 6, 30_000.0, 0.15, 7, 7);
    let partitioner = AdaptiveGrid::from_sample(data.domain, [4, 4], &data.boxes);
    Fixture {
        objects: data.boxes,
        partitioner,
        tree: TreeConfig::tiny(Variant::RStar),
        clip: ClipConfig::paper_default::<2>(ClipMethod::Stairline),
    }
}

fn queries(n: usize, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen_range(-20_000.0, 1_000_000.0);
            let y = rng.gen_range(-20_000.0, 1_000_000.0);
            // Every fourth query is far outside the data: empty answers
            // must round-trip too.
            let off = if i % 4 == 3 { 2_000_000.0 } else { 0.0 };
            let s = rng.gen_range(1_000.0, 60_000.0);
            Rect::new(Point([x + off, y + off]), Point([x + off + s, y + off + s]))
        })
        .collect()
}

/// Mixed workload through a batching service vs the direct engine —
/// identical `Vec<DataId>` / neighbour lists / `JoinResult`s.
#[test]
fn batched_answers_equal_direct_executor_answers() {
    let f = fixture();
    let direct = DatasetStore::build(
        f.partitioner.clone(),
        &f.objects,
        f.tree,
        f.clip,
        EXEC_WORKERS,
    );
    let service = ServiceBuilder::from_config(ServiceConfig {
        batch_max: 16,
        batch_deadline: Duration::from_millis(5),
        exec_workers: EXEC_WORKERS,
        ..ServiceConfig::default()
    })
    .build(f.partitioner.clone(), f.objects.clone(), f.tree, f.clip);
    let dataset = service.default_dataset();

    let range_qs = queries(60, 41);
    let mut rng = SplitMix64::new(42);
    let knn_probes: Vec<(Point<2>, usize)> = (0..40)
        .map(|i| {
            let p = Point([
                rng.gen_range(-50_000.0, 1_050_000.0),
                rng.gen_range(-50_000.0, 1_050_000.0),
            ]);
            (p, [0, 1, 5, 20][i % 4])
        })
        .collect();
    let join_probes = queries(150, 43);

    // Interleave kinds so real batches mix them.
    let mut handles = Vec::new();
    let mut expected = Vec::new();
    for i in 0..60 {
        let use_clips = i % 3 != 0;
        let q = range_qs[i];
        expected.push(Response::Range(
            direct.run(&[q], 1, use_clips).results.remove(0),
        ));
        handles.push(
            service
                .submit(Request::Range {
                    dataset,
                    query: q,
                    use_clips,
                })
                .unwrap(),
        );
        if i < 40 {
            let (center, k) = knn_probes[i];
            expected.push(if k == 0 {
                Response::Failed(RequestError::InvalidInput("k must be at least 1"))
            } else {
                Response::Knn(direct.run_knn(&[(center, k)], 1).results.remove(0))
            });
            handles.push(service.submit(Request::Knn { dataset, center, k }).unwrap());
        }
        if i % 20 == 0 {
            for algo in [JoinAlgo::Stt, JoinAlgo::Inlj] {
                let plan = JoinPlan {
                    partitioner: f.partitioner.clone(),
                    tree: f.tree,
                    clip: f.clip,
                    use_clips: true,
                    algo,
                    workers: EXEC_WORKERS,
                    split: SplitPolicy::Auto,
                    auto: AutoPolicy::default(),
                };
                expected.push(Response::Join(partitioned_join(
                    &plan,
                    &join_probes,
                    &f.objects,
                )));
                handles.push(
                    service
                        .submit(Request::Join {
                            dataset,
                            probes: join_probes.clone(),
                            algo,
                            use_clips: true,
                        })
                        .unwrap(),
                );
            }
        }
    }

    let mut batched = 0u64;
    for (i, (handle, want)) in handles.into_iter().zip(expected).enumerate() {
        let completion = handle.wait().expect("request served");
        assert_eq!(completion.response, want, "request {i}");
        assert!(completion.batch_size >= 1);
        if completion.batch_size > 1 {
            batched += 1;
        }
    }
    assert!(batched > 0, "the batching config must form real batches");
    let report = service.shutdown();
    assert_eq!(report.completed, report.submitted);
    assert_eq!(report.forest_builds, 1, "one data version, one forest");
}

/// The same workload answered identically under wildly different
/// batching configurations — batching is invisible in the results.
#[test]
fn batching_configuration_does_not_change_answers() {
    let f = fixture();
    let range_qs = queries(40, 77);
    let configs = [
        ServiceConfig::unbatched(),
        ServiceConfig {
            batch_max: 4,
            batch_deadline: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
        ServiceConfig {
            batch_max: 64,
            batch_deadline: Duration::from_millis(20),
            dispatchers: 2,
            ..ServiceConfig::default()
        },
    ];
    let mut all_answers: Vec<Vec<Response>> = Vec::new();
    for config in configs {
        let service = ServiceBuilder::from_config(config).build(
            f.partitioner.clone(),
            f.objects.clone(),
            f.tree,
            f.clip,
        );
        let dataset = service.default_dataset();
        let handles: Vec<_> = range_qs
            .iter()
            .map(|q| {
                service
                    .submit(Request::Range {
                        dataset,
                        query: *q,
                        use_clips: true,
                    })
                    .unwrap()
            })
            .collect();
        all_answers.push(
            handles
                .into_iter()
                .map(|h| h.wait().unwrap().response)
                .collect(),
        );
        service.shutdown();
    }
    assert_eq!(all_answers[0], all_answers[1]);
    assert_eq!(all_answers[0], all_answers[2]);
}

/// Degenerate requests round-trip: empty join probe sets and a range
/// query that matches nothing are served; k = 0 is refused at
/// admission.
#[test]
fn degenerate_requests_are_served() {
    let f = fixture();
    let service = ServiceBuilder::from_config(ServiceConfig::default()).build(
        f.partitioner.clone(),
        f.objects.clone(),
        f.tree,
        f.clip,
    );
    let dataset = service.default_dataset();
    let knn = service
        .submit(Request::Knn {
            dataset,
            center: Point([0.0, 0.0]),
            k: 0,
        })
        .unwrap();
    let join = service
        .submit(Request::Join {
            dataset,
            probes: Vec::new(),
            algo: JoinAlgo::Stt,
            use_clips: true,
        })
        .unwrap();
    let miss = service
        .submit(Request::Range {
            dataset,
            query: Rect::new(Point([-9e7, -9e7]), Point([-8e7, -8e7])),
            use_clips: false,
        })
        .unwrap();
    assert!(matches!(
        knn.wait().unwrap().response,
        Response::Failed(RequestError::InvalidInput(_))
    ));
    assert_eq!(join.wait().unwrap().response.into_join().pairs, 0);
    assert!(miss.wait().unwrap().response.into_range().is_empty());
    service.shutdown();
}

/// Range answers are identical to the direct engine in every service
/// shape — coalescing micro-batches and the unbatched per-request path,
/// one shard and three — all in the canonical ascending-id order.
#[test]
fn range_answers_match_direct_engine_in_every_service_shape() {
    let f = fixture();
    let range_qs = queries(48, 97);
    let direct = DatasetStore::build(
        f.partitioner.clone(),
        &f.objects,
        f.tree,
        f.clip,
        EXEC_WORKERS,
    );
    let expected: Vec<Vec<DataId>> = range_qs
        .iter()
        .enumerate()
        .map(|(i, q)| direct.run(&[*q], 1, i % 3 != 0).results.remove(0))
        .collect();
    for shards in [1, 3] {
        for unbatched in [false, true] {
            let mut builder = ServiceBuilder::new()
                .shards(shards)
                .batch_max(16)
                .batch_deadline(Duration::from_millis(3))
                .exec_workers(EXEC_WORKERS);
            if unbatched {
                builder = builder.unbatched();
            }
            let service = builder.build(f.partitioner.clone(), f.objects.clone(), f.tree, f.clip);
            let dataset = service.default_dataset();
            let handles: Vec<_> = range_qs
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    service
                        .submit(Request::Range {
                            dataset,
                            query: *q,
                            use_clips: i % 3 != 0,
                        })
                        .unwrap()
                })
                .collect();
            let answers: Vec<Vec<DataId>> = handles
                .into_iter()
                .map(|h| h.wait().unwrap().response.into_range())
                .collect();
            service.shutdown();
            for ids in &answers {
                assert!(ids.is_sorted(), "canonical order is ascending by id");
            }
            assert_eq!(
                answers, expected,
                "shards={shards} unbatched={unbatched} must answer like the engine"
            );
        }
    }
}

/// Malformed reads and writes are refused at admission with
/// `Failed(InvalidInput)` on every service shape, change nothing, and
/// leave well-formed neighbours (point-extent rects included) served.
#[test]
fn malformed_requests_fail_at_admission() {
    let f = fixture();
    let nan = f64::NAN;
    let r = |lo: [f64; 2], hi: [f64; 2]| Rect {
        lo: Point(lo),
        hi: Point(hi),
    };
    for shards in [1, 2] {
        let service = ServiceBuilder::new().shards(shards).build(
            f.partitioner.clone(),
            f.objects.clone(),
            f.tree,
            f.clip,
        );
        let dataset = service.default_dataset();
        let version = service.dataset_version(dataset);
        let malformed = [
            Request::Knn {
                dataset,
                center: Point([nan, 0.0]),
                k: 3,
            },
            Request::Knn {
                dataset,
                center: Point([0.0, 0.0]),
                k: 0,
            },
            Request::Range {
                dataset,
                query: r([nan, 0.0], [1e6, 1e6]),
                use_clips: true,
            },
            Request::Range {
                dataset,
                query: r([5e5, 5e5], [1e5, 1e5]),
                use_clips: false,
            },
            Request::Insert {
                dataset,
                rect: r([nan, 1.0], [2.0, 2.0]),
            },
            Request::Insert {
                dataset,
                rect: r([1.0, 1.0], [f64::INFINITY, 2.0]),
            },
            Request::UpdateBatch {
                dataset,
                updates: vec![
                    Update::Insert(r([1.0, 1.0], [2.0, 2.0])),
                    Update::Insert(r([3.0, 1.0], [2.0, 2.0])),
                ],
            },
        ];
        for request in malformed {
            let what = format!("{request:?} on {shards} shard(s)");
            let response = service.submit(request).unwrap().wait().unwrap().response;
            assert!(
                matches!(response, Response::Failed(RequestError::InvalidInput(_))),
                "{what}: got {response:?}"
            );
        }
        assert_eq!(
            service.dataset_version(dataset),
            version,
            "refused writes change nothing ({shards} shard(s))"
        );
        // Point extents are valid rectangles.
        let p = f.objects[0].lo;
        let hits = service
            .submit(Request::Range {
                dataset,
                query: Rect::point(p),
                use_clips: true,
            })
            .unwrap()
            .wait()
            .unwrap()
            .response
            .into_range();
        assert!(hits.contains(&DataId(0)), "{shards} shard(s)");
        let inserted = service
            .submit(Request::Insert {
                dataset,
                rect: Rect::point(p),
            })
            .unwrap()
            .wait()
            .unwrap()
            .response;
        assert!(
            matches!(inserted, Response::Inserted(Some(_))),
            "{shards} shard(s): {inserted:?}"
        );
        service.shutdown();
    }
}
