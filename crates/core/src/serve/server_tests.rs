//! Unit tests for the serving router (split out of `server.rs` to keep
//! the layer files readable).

use super::server::*;
use crate::engine::JitSpmm;
use crate::engine::JitSpmmBuilder;
use crate::error::JitSpmmError;
use crate::runtime::WorkerPool;
use crate::schedule::Strategy;
use crate::serve::control::AdmissionPolicy;
use crate::serve::queue::ServerRequest;
use jitspmm_asm::CpuFeatures;
use jitspmm_sparse::DenseMatrix;
use jitspmm_sparse::{generate, CsrMatrix};

fn host_ok() -> bool {
    let f = CpuFeatures::detect();
    f.avx && f.has_fma()
}

fn matrices() -> Vec<CsrMatrix<f32>> {
    vec![
        generate::uniform::<f32>(120, 100, 1_000, 1),
        generate::rmat::<f32>(7, 1_500, generate::RmatConfig::GRAPH500, 2),
        generate::uniform::<f32>(60, 60, 400, 3),
    ]
}

/// Engines over `matrices()` with heterogeneous d and strategies, all on
/// one pool.
fn build_engines<'m>(pool: &WorkerPool, matrices: &'m [CsrMatrix<f32>]) -> Vec<JitSpmm<'m, f32>> {
    matrices
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let strategy = if i % 2 == 0 {
                Strategy::RowSplitDynamic { batch: 16 }
            } else {
                Strategy::RowSplitStatic
            };
            JitSpmmBuilder::new()
                .pool(pool.clone())
                .threads(1)
                .strategy(strategy)
                .build(m, 4 + 4 * i)
                .unwrap()
        })
        .collect()
}

fn input_for(m: &CsrMatrix<f32>, d: usize, seed: u64) -> DenseMatrix<f32> {
    DenseMatrix::random(m.ncols(), d, seed)
}

#[test]
fn server_requires_a_shared_pool() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool_a = WorkerPool::new(1);
    let pool_b = WorkerPool::new(1);
    let engines = vec![
        JitSpmmBuilder::new().pool(pool_a.clone()).build(&ms[0], 4).unwrap(),
        JitSpmmBuilder::new().pool(pool_b.clone()).build(&ms[1], 4).unwrap(),
    ];
    assert!(matches!(SpmmServer::new(engines).unwrap_err(), JitSpmmError::InvalidConfig(_)));
    assert!(matches!(
        SpmmServer::<f32>::new(Vec::new()).unwrap_err(),
        JitSpmmError::InvalidConfig(_)
    ));
    // Clones of one pool are the same pool.
    let engines = vec![
        JitSpmmBuilder::new().pool(pool_a.clone()).build(&ms[0], 4).unwrap(),
        JitSpmmBuilder::new().pool(pool_a.clone()).build(&ms[1], 4).unwrap(),
    ];
    assert!(SpmmServer::new(engines).is_ok());
}

#[test]
fn mixed_stream_matches_per_engine_sequential_execution() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    // Reference: each request through its engine's blocking execute.
    let requests: Vec<ServerRequest<f32>> = (0..12)
        .map(|i| {
            let engine = i % engines.len();
            ServerRequest::new(engine, input_for(&ms[engine], engines[engine].d(), 700 + i as u64))
        })
        .collect();
    let expected: Vec<DenseMatrix<f32>> = requests
        .iter()
        .map(|r| engines[r.engine].execute(&r.input).unwrap().0.into_dense())
        .collect();
    let server = SpmmServer::new(engines).unwrap();
    let (responses, report) = server.serve_batch(0, requests).unwrap();
    assert_eq!(responses.len(), expected.len());
    assert_eq!(report.requests, expected.len());
    assert_eq!(report.per_engine.len(), 3);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.request(), i, "responses are sorted by global order");
        assert_eq!(response.engine(), i % 3);
        assert_eq!(
            **response.output(),
            expected[i],
            "request {i} must be bit-identical to sequential execution"
        );
    }
    // Per-engine order: the k-th response of engine e has index k.
    for e in 0..3 {
        let indices: Vec<usize> =
            responses.iter().filter(|r| r.engine() == e).map(|r| r.index()).collect();
        assert_eq!(indices, (0..indices.len()).collect::<Vec<_>>());
        assert_eq!(report.per_engine[e].inputs, indices.len());
    }
}

/// A request stream fed from a producer thread, served under blocking
/// admission, matches per-engine sequential execution.
#[test]
fn serve_stream_routes_cross_thread_producers() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let dims: Vec<usize> = engines.iter().map(|e| e.d()).collect();
    let expected: Vec<DenseMatrix<f32>> = (0..10)
        .map(|i| {
            let e = i % engines.len();
            engines[e].execute(&input_for(&ms[e], dims[e], 800 + i as u64)).unwrap().0.into_dense()
        })
        .collect();
    let server = SpmmServer::new(engines).unwrap();
    let ms_ref = &ms;
    let dims_ref = &dims;
    let mut responses = Vec::new();
    let (report, produced) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(3)),
            move |sender| {
                let mut sent = 0usize;
                for i in 0..10usize {
                    let e = i % dims_ref.len();
                    if sender.send(e, input_for(&ms_ref[e], dims_ref[e], 800 + i as u64)).is_ok() {
                        sent += 1;
                    }
                }
                sent
            },
            |response| responses.push(response),
        )
        .unwrap();
    responses.sort_by_key(|r| r.request());
    assert_eq!(produced, 10);
    assert_eq!(report.requests, 10);
    assert_eq!(responses.len(), 10);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(**response.output(), expected[i], "streamed request {i} diverged");
    }
    assert!(report.elapsed >= report.per_engine.iter().map(|r| r.elapsed).max().unwrap());
}

#[test]
fn serve_batch_rejects_malformed_requests_up_front() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let d0 = engines[0].d();
    let server = SpmmServer::new(engines).unwrap();
    // A wrong-shape request mid-batch fails the whole call, naming the
    // request, before anything launches.
    let requests = vec![
        ServerRequest::new(0, input_for(&ms[0], d0, 1)),
        ServerRequest::new(0, DenseMatrix::<f32>::zeros(3, 3)),
    ];
    match server.serve_batch(0, requests).unwrap_err() {
        JitSpmmError::ShapeMismatch(msg) => {
            assert!(msg.contains("request 1"), "should name the request: {msg}")
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    // An unknown engine id likewise.
    let requests = vec![ServerRequest::new(9, input_for(&ms[0], d0, 1))];
    assert!(matches!(
        server.serve_batch(0, requests).unwrap_err(),
        JitSpmmError::UnknownEngine { requested: 9, engines: 3 }
    ));
    // And the server still works.
    let good = vec![ServerRequest::new(0, input_for(&ms[0], d0, 2))];
    let (responses, _) = server.serve_batch(0, good).unwrap();
    assert_eq!(responses.len(), 1);
}

#[test]
fn single_engine_server_is_just_a_batch() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let m = generate::uniform::<f32>(80, 80, 600, 9);
    let pool = WorkerPool::new(2);
    let engine = JitSpmmBuilder::new().pool(pool.clone()).threads(2).build(&m, 8).unwrap();
    let inputs: Vec<DenseMatrix<f32>> =
        (0..5).map(|i| DenseMatrix::random(80, 8, 40 + i)).collect();
    let expected: Vec<DenseMatrix<f32>> =
        inputs.iter().map(|x| engine.execute(x).unwrap().0.into_dense()).collect();
    let server = SpmmServer::new(vec![engine]).unwrap();
    let requests: Vec<ServerRequest<f32>> =
        inputs.into_iter().map(|input| ServerRequest::new(0, input)).collect();
    let (responses, report) = server.serve_batch(2, requests).unwrap();
    assert_eq!(report.requests, 5);
    assert!(report.throughput() >= 0.0);
    for (response, expected) in responses.iter().zip(&expected) {
        assert_eq!(**response.output(), *expected);
    }
}

#[test]
fn sharded_engine_serves_behind_one_logical_id() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    use crate::update::MutableSpmm;
    let small = generate::uniform::<f32>(90, 70, 700, 21);
    let big = generate::rmat::<f32>(9, 8_000, generate::RmatConfig::GRAPH500, 22);
    let pool = WorkerPool::new(2);
    let single = JitSpmmBuilder::new().pool(pool.clone()).threads(1).build(&small, 4).unwrap();
    let sharded = MutableSpmm::compile(&big, 3, 1, 8, pool.clone()).unwrap();
    // References before the server takes ownership.
    let single_inputs: Vec<DenseMatrix<f32>> =
        (0..4).map(|i| input_for(&small, 4, 600 + i)).collect();
    let sharded_inputs: Vec<DenseMatrix<f32>> =
        (0..4).map(|i| input_for(&big, 8, 700 + i)).collect();
    let expected_single: Vec<DenseMatrix<f32>> =
        single_inputs.iter().map(|x| single.execute(x).unwrap().0.into_dense()).collect();
    let expected_sharded: Vec<DenseMatrix<f32>> = sharded_inputs
        .iter()
        .map(|x| pool.scope(|scope| sharded.execute(scope, x)).unwrap().0.into_dense())
        .collect();

    let server = SpmmServer::new(vec![single]).unwrap();
    let sharded_id = server.add_mutable(sharded).unwrap();
    assert_eq!(sharded_id, 1);
    assert_eq!(server.engine_count(), 2);
    // A sharded engine on a foreign pool is refused.
    let foreign = MutableSpmm::compile(&big, 2, 1, 8, WorkerPool::new(1)).unwrap();
    assert!(matches!(server.add_mutable(foreign).unwrap_err(), JitSpmmError::InvalidConfig(_)));

    // An interleaved mixed stream across both ids.
    let requests: Vec<ServerRequest<f32>> = (0..8)
        .map(|i| {
            let engine = i % 2;
            let input = if engine == 0 {
                single_inputs[i / 2].clone()
            } else {
                sharded_inputs[i / 2].clone()
            };
            ServerRequest::new(engine, input)
        })
        .collect();
    let (responses, report) = server.serve_batch(0, requests).unwrap();
    assert_eq!(responses.len(), 8);
    assert_eq!(report.per_engine.len(), 2);
    assert_eq!(report.per_engine[0].inputs, 4);
    assert_eq!(report.per_engine[1].inputs, 4);
    for response in &responses {
        let expected = if response.engine() == 0 {
            &expected_single[response.index()]
        } else {
            &expected_sharded[response.index()]
        };
        assert_eq!(
            **response.output(),
            *expected,
            "engine {} request {} must be bit-identical to direct execution",
            response.engine(),
            response.index()
        );
    }
    // Validation covers the sharded id space: bad shapes and unknown ids
    // are refused before any launch.
    let bad = vec![ServerRequest::new(sharded_id, DenseMatrix::zeros(3, 3))];
    assert!(matches!(server.serve_batch(0, bad).unwrap_err(), JitSpmmError::ShapeMismatch(_)));
    let unknown = vec![ServerRequest::new(2, input_for(&big, 8, 1))];
    assert!(matches!(
        server.serve_batch(0, unknown).unwrap_err(),
        JitSpmmError::UnknownEngine { requested: 2, engines: 2 }
    ));
}

/// Each response of a served request stream reaches the consumer callback
/// as soon as it exists, in per-engine submission order.
#[test]
fn serve_stream_with_hands_responses_to_the_consumer() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let dims: Vec<usize> = engines.iter().map(|e| e.d()).collect();
    let expected: Vec<DenseMatrix<f32>> = (0..9)
        .map(|i| {
            let e = i % engines.len();
            engines[e].execute(&input_for(&ms[e], dims[e], 900 + i as u64)).unwrap().0.into_dense()
        })
        .collect();
    let server = SpmmServer::new(engines).unwrap();
    let (ms_ref, dims_ref) = (&ms, &dims);
    let mut streamed = Vec::new();
    let (report, produced) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(3)),
            move |sender| {
                let mut sent = 0usize;
                for i in 0..9usize {
                    let e = i % dims_ref.len();
                    if sender.send(e, input_for(&ms_ref[e], dims_ref[e], 900 + i as u64)).is_ok() {
                        sent += 1;
                    }
                }
                sent
            },
            |response| streamed.push(response),
        )
        .unwrap();
    assert_eq!(produced, 9);
    assert_eq!(report.requests, 9);
    assert_eq!(streamed.len(), 9);
    // Responses arrive in per-engine submission order; re-sequence by the
    // global submission number to compare against the references.
    streamed.sort_by_key(|r| r.request());
    for (i, response) in streamed.iter().enumerate() {
        assert_eq!(response.request(), i);
        assert_eq!(
            **response.output(),
            expected[i],
            "streamed response {i} must be bit-identical to sequential execution"
        );
    }
}

#[test]
fn panicking_consumer_still_closes_the_queue() {
    if !host_ok() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let ms = matrices();
    let pool = WorkerPool::new(2);
    let engines = build_engines(&pool, &ms);
    let d0 = engines[0].d();
    let server = SpmmServer::new(engines).unwrap();
    let ms_ref = &ms;
    // The consumer panics on the first response while the producer still
    // has dozens of sends to push through a capacity-1 queue: the panic
    // must close the queue (producer sends return false instead of
    // blocking forever) and then propagate. A producer that panics
    // mid-stream must likewise end the serve and propagate, with the
    // launches it fed joined. The test completing at all is the
    // no-deadlock assertion.
    for panicking in ["consumer", "producer"] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            server.serve_controlled(
                ServeOptions::new(AdmissionPolicy::blocking(1)),
                move |sender| {
                    let mut refused = 0usize;
                    for i in 0..50usize {
                        if panicking == "producer" && i == 25 {
                            panic!("producer exploded");
                        }
                        if sender.send(0, input_for(&ms_ref[0], d0, i as u64)).is_err() {
                            refused += 1;
                        }
                    }
                    refused
                },
                |_response| {
                    if panicking == "consumer" {
                        panic!("consumer exploded");
                    }
                },
            )
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, format!("{panicking} exploded"));
        // The server (and its engines) remain fully usable afterwards.
        let x = input_for(&ms[0], d0, 123);
        let (y, _) = server.single(0).unwrap().execute(&x).unwrap();
        assert!(y.approx_eq(&ms[0].spmm_reference(&x), 1e-4));
    }
}
