//! Integration tests for adaptive kernel tiering: tier-0 start, profiled
//! recompile, hot-swap between launches, and promotion through the serving
//! control plane.
//!
//! The contracts under test, end to end:
//!
//! - A tiered engine serves immediately on its tier-0 kernel, and tier-0
//!   results are bit-identical to a fixed scalar static-row-split engine
//!   (which in turn matches the reference implementation).
//! - Promotion never changes results: outputs after the hot-swap are
//!   bit-identical to a fixed engine compiled at the promoted
//!   configuration, and a promotion that keeps the ISA fixed is
//!   bit-identical across the swap boundary.
//! - The swap only happens between launches: an open batch stream defers
//!   installation, and the deferred core installs cleanly afterwards.
//! - A crash inside the recompile is contained: the engine keeps serving
//!   tier-0 forever and the serving session never notices.

use jitspmm::serve::{fault, AdmissionPolicy, ServeOptions, ServerRequest, SpmmServer};
use jitspmm::{
    IsaLevel, JitSpmmBuilder, KernelTier, MutableSpmm, ShardOptions, Strategy, TierPolicy,
    WorkerPool,
};
use jitspmm_integration_tests::{host_supports_jit, pathological, small_skewed, small_uniform};
use jitspmm_sparse::{CsrMatrix, DeltaBatch, DenseMatrix};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const D: usize = 4;

/// A tiered engine that can only promote by changing strategy: the scalar
/// pin keeps the promoted kernel's arithmetic identical to tier-0's, so
/// every comparison below is bit-for-bit on any host.
fn scalar_tiered<'a>(
    a: &'a CsrMatrix<f32>,
    pool: &WorkerPool,
    warmup: usize,
) -> jitspmm::JitSpmm<'a, f32> {
    JitSpmmBuilder::new()
        .pool(pool.clone())
        .strategy(Strategy::row_split_dynamic_default())
        .isa(IsaLevel::Scalar)
        .tiered(TierPolicy::new().warmup(warmup))
        .build(a, D)
        .unwrap()
}

#[test]
fn tier0_is_bit_identical_to_fixed_scalar_static_engine() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let pool = WorkerPool::new(2);
    // Scenario matrix: uniform, skewed and boundary-path sparsity, each
    // requesting a *different* configuration than tier-0 compiles.
    for (name, a) in
        [("uniform", small_uniform()), ("skewed", small_skewed()), ("pathological", pathological())]
    {
        let tiered = JitSpmmBuilder::new()
            .pool(pool.clone())
            .strategy(Strategy::row_split_dynamic_default())
            .tiered(TierPolicy::default())
            .build(&a, D)
            .unwrap();
        assert_eq!(tiered.tier(), KernelTier::Tier0, "{name}");
        assert_eq!(tiered.promotions(), 0, "{name}");
        // Tier-0 is always scalar + static row split, whatever was asked.
        let anchor = JitSpmmBuilder::new()
            .pool(pool.clone())
            .strategy(Strategy::RowSplitStatic)
            .isa(IsaLevel::Scalar)
            .build(&a, D)
            .unwrap();
        assert_eq!(anchor.tier(), KernelTier::Fixed, "{name}");
        let x = DenseMatrix::random(a.ncols(), D, 5);
        let (y_tiered, _) = tiered.execute(&x).unwrap();
        let (y_anchor, _) = anchor.execute(&x).unwrap();
        assert_eq!(tiered.tier(), KernelTier::Tier0, "{name}");
        assert_eq!(y_tiered.max_abs_diff(&y_anchor), 0.0, "{name}: tier-0 != fixed scalar");
        assert!(y_tiered.approx_eq(&a.spmm_reference(&x), 1e-4), "{name}: scalar anchor");
    }
}

#[test]
fn promoted_engine_is_bit_identical_to_fixed_engine_at_promoted_config() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_skewed();
    let pool = WorkerPool::new(2);
    // Host-default ISA: promotion may widen the ISA, so the comparison
    // target is a fixed engine built at whatever configuration the tier
    // actually promoted to (read back from the engine's meta).
    let tiered = JitSpmmBuilder::new()
        .pool(pool.clone())
        .strategy(Strategy::row_split_dynamic_default())
        .tiered(TierPolicy::new().warmup(3))
        .build(&a, D)
        .unwrap();
    let x = DenseMatrix::random(a.ncols(), D, 9);
    for _ in 0..3 {
        tiered.execute(&x).unwrap();
    }
    // Warmup full, but plain execute never swaps by itself: promotion is
    // explicit (promote_now) or driven by a serving session.
    assert_eq!(tiered.tier(), KernelTier::Tier0);
    assert!(tiered.promote_now(), "strategy change always qualifies");
    assert_eq!(tiered.tier(), KernelTier::Promoted);
    assert_eq!(tiered.promotions(), 1);
    let meta = tiered.meta();
    let twin = JitSpmmBuilder::new()
        .pool(pool.clone())
        .strategy(meta.strategy)
        .isa(meta.isa)
        .build(&a, D)
        .unwrap();
    let (y_promoted, _) = tiered.execute(&x).unwrap();
    let (y_twin, _) = twin.execute(&x).unwrap();
    assert_eq!(tiered.tier(), KernelTier::Promoted);
    assert_eq!(y_promoted.max_abs_diff(&y_twin), 0.0, "promoted != fixed twin");
    // promote_now is idempotent once promoted.
    assert!(tiered.promote_now());
    assert_eq!(tiered.promotions(), 1);
}

#[test]
fn open_stream_defers_install_and_results_stay_bit_identical_across_swap() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let pool = WorkerPool::new(2);
    let engine = scalar_tiered(&a, &pool, 1);
    let inputs: Vec<DenseMatrix<f32>> =
        (0..6).map(|seed| DenseMatrix::random(a.ncols(), D, 100 + seed)).collect();
    let expected: Vec<DenseMatrix<f32>> =
        inputs.iter().map(|x| (*engine.execute(x).unwrap().0).clone()).collect();
    // The warmup window is full; a stream now holds the launch lock, so
    // promote_now recompiles but must defer the install.
    let streamed: Vec<DenseMatrix<f32>> = engine
        .pool()
        .scope(|scope| {
            let mut stream = engine.batch_stream(scope, 2).unwrap();
            let mut outputs = Vec::new();
            for (i, x) in inputs.iter().enumerate() {
                if let Some((y, _)) = stream.push(x).unwrap() {
                    outputs.push((*y).clone());
                }
                if i == 2 {
                    assert!(!engine.promote_now(), "install must defer while a stream is open");
                    assert_eq!(engine.tier(), KernelTier::Tier0);
                }
            }
            let (rest, _) = stream.finish();
            outputs.extend(rest.into_iter().map(|(y, _)| (*y).clone()));
            outputs
        })
        .into_iter()
        .collect();
    for (y, e) in streamed.iter().zip(&expected) {
        assert_eq!(y.max_abs_diff(e), 0.0, "tier-0 stream output");
    }
    // The stream is closed: the already-built core installs now.
    assert!(engine.promote_now());
    assert_eq!(engine.tier(), KernelTier::Promoted);
    for (x, e) in inputs.iter().zip(&expected) {
        let (y, _) = engine.execute(x).unwrap();
        assert_eq!(y.max_abs_diff(e), 0.0, "post-swap output changed");
    }
}

#[test]
fn serve_controlled_promotes_mid_session_without_changing_outputs() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let b = small_skewed();
    let pool = WorkerPool::new(2);
    let tiered = scalar_tiered(&a, &pool, 2);
    let fixed = JitSpmmBuilder::new().pool(pool.clone()).build(&b, D).unwrap();
    let server = SpmmServer::new(vec![tiered, fixed]).unwrap();
    let total = 24usize;
    let inputs: Vec<(usize, DenseMatrix<f32>)> = (0..total)
        .map(|i| {
            let engine = if i % 3 == 2 { 1 } else { 0 };
            let cols = if engine == 0 { a.ncols() } else { b.ncols() };
            (engine, DenseMatrix::random(cols, D, 200 + i as u64))
        })
        .collect();
    // References from the engines *before* serving — engine 0 is on tier 0
    // here, and the scalar pin makes its promotion strategy-only, so the
    // comparison stays bit-for-bit across the mid-session swap.
    let expected: Vec<DenseMatrix<f32>> = inputs
        .iter()
        .map(|(engine, x)| (*server.single(*engine).unwrap().execute(x).unwrap().0).clone())
        .collect();
    let mut outputs: Vec<Option<(usize, DenseMatrix<f32>)>> = vec![None; total];
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(4))
                .tiering(TierPolicy::new().warmup(2).foreground()),
            |sender| {
                for (engine, x) in inputs.iter().cloned() {
                    sender.send_request(ServerRequest::new(engine, x)).unwrap();
                }
            },
            |response| {
                assert!(response.is_completed());
                let slot = (response.engine(), (**response.output()).clone());
                outputs[response.request()] = Some(slot);
            },
        )
        .unwrap();
    assert_eq!(report.requests, total);
    assert!(report.promotions >= 1, "tiered engine must promote mid-session");
    assert_eq!(report.engine(0).unwrap().tier.label(), "promoted");
    assert_eq!(report.engine(0).unwrap().promotions, report.promotions);
    assert_eq!(report.engine(1).unwrap().tier.label(), "fixed");
    assert_eq!(report.engine(1).unwrap().promotions, 0);
    for (request, e) in expected.iter().enumerate() {
        let (engine, y) = outputs[request].as_ref().expect("every request answered");
        assert_eq!(*engine, inputs[request].0);
        assert_eq!(y.max_abs_diff(e), 0.0, "request {request}: output changed across swap");
    }
}

#[test]
fn background_recompile_rides_the_pool_and_keeps_results_correct() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let pool = WorkerPool::new(2);
    let engine = scalar_tiered(&a, &pool, 2);
    let server = SpmmServer::new(vec![engine]).unwrap();
    let inputs: Vec<DenseMatrix<f32>> =
        (0..16).map(|i| DenseMatrix::random(a.ncols(), D, 300 + i)).collect();
    let expected: Vec<DenseMatrix<f32>> =
        inputs.iter().map(|x| (*server.single(0).unwrap().execute(x).unwrap().0).clone()).collect();
    let mut outputs: Vec<Option<DenseMatrix<f32>>> = vec![None; inputs.len()];
    let (report, ()) = server
        .serve_controlled(
            // Default policy: the recompile runs as a lane-capped pool job.
            // Whether it finishes before the session ends is a race the
            // contract is indifferent to — outputs are bit-identical either
            // way, which is exactly what this test pins down.
            ServeOptions::new(AdmissionPolicy::blocking(4)).tiering(TierPolicy::new().warmup(2)),
            |sender| {
                for x in inputs.iter().cloned() {
                    sender.send_request(ServerRequest::new(0, x)).unwrap();
                }
            },
            |response| {
                assert!(response.is_completed());
                outputs[response.request()] = Some((**response.output()).clone());
            },
        )
        .unwrap();
    assert_eq!(report.requests, inputs.len());
    let tier = report.engine(0).unwrap().tier;
    assert!(
        matches!(tier, KernelTier::Tier0 | KernelTier::Promoted),
        "a tiered engine never reports a fixed tier"
    );
    assert_eq!(report.promotions, report.engine(0).unwrap().promotions);
    for (request, e) in expected.iter().enumerate() {
        let y = outputs[request].as_ref().expect("every request answered");
        assert_eq!(y.max_abs_diff(e), 0.0, "request {request}");
    }
}

#[test]
fn sharded_engines_promote_per_shard_through_the_server() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_skewed();
    let pool = WorkerPool::new(2);
    let options = ShardOptions::new().tiered(TierPolicy::new().warmup(2));
    let sharded = MutableSpmm::compile_with(&a, 2, 1, D, pool.clone(), options).unwrap();
    assert_eq!(sharded.tier(), KernelTier::Tier0);
    // A server cannot be empty; the sharded engine registers behind id 1.
    let fixed = JitSpmmBuilder::new().pool(pool.clone()).build(&a, D).unwrap();
    let server = SpmmServer::new(vec![fixed]).unwrap();
    let id = server.add_mutable(sharded).unwrap();
    assert_eq!(id, 1);
    let inputs: Vec<DenseMatrix<f32>> =
        (0..16).map(|i| DenseMatrix::random(a.ncols(), D, 400 + i)).collect();
    let expected: Vec<DenseMatrix<f32>> = inputs.iter().map(|x| a.spmm_reference(x)).collect();
    let mut completed = 0usize;
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(4))
                .tiering(TierPolicy::new().warmup(2).foreground()),
            |sender| {
                for x in inputs.iter().cloned() {
                    sender.send_request(ServerRequest::new(id, x)).unwrap();
                }
            },
            |response| {
                assert!(response.is_completed());
                let e = &expected[response.request()];
                // Shards may widen their ISA independently, so the anchor
                // here is the reference result, not bit-equality.
                assert!(response.output().approx_eq(e, 1e-4));
                completed += 1;
            },
        )
        .unwrap();
    assert_eq!(completed, inputs.len());
    // Every shard sees every request, so both shards fill their warmup
    // windows; strategy-change promotions always qualify, ISA widenings
    // must clear the modeled-gain bar — at least one shard promotes.
    assert!(report.promotions >= 1, "no shard promoted");
    assert_eq!(report.engine(id).unwrap().promotions, report.promotions);
    let tier = report.engine(id).unwrap().tier;
    assert!(matches!(tier, KernelTier::Tier0 | KernelTier::Promoted));
    assert_eq!(report.engine(0).unwrap().tier.label(), "fixed");
}

/// Tiering and live updates on one sharded engine in one session: after at
/// least one shard has promoted, a delta applied through the control plane
/// rebuilds the touched shard (back on its tier-0 kernel) while the
/// untouched shard adopts its promoted core — and every later output must
/// match the merged matrix.
#[test]
fn promoted_sharded_engines_take_live_updates() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_skewed();
    let pool = WorkerPool::new(2);
    let options = ShardOptions::new().tiered(TierPolicy::new().warmup(2));
    let sharded = MutableSpmm::compile_with(&a, 2, 1, D, pool.clone(), options).unwrap();
    let fixed = JitSpmmBuilder::new().pool(pool.clone()).build(&a, D).unwrap();
    let server = SpmmServer::new(vec![fixed]).unwrap();
    let id = server.add_mutable(sharded).unwrap();
    // Touch row 0 only: the first shard rebuilds, the second adopts.
    let mut delta = DeltaBatch::new();
    delta.upsert(0, 3, 2.5).upsert(0, 9, -1.25);
    let merged = a.apply_delta(&delta).unwrap();
    let input = |seed: u64| DenseMatrix::random(a.ncols(), D, 900 + seed);

    let control = server.control();
    let server_ref = &server;
    let answered = AtomicUsize::new(0);
    let answered_ref = &answered;
    let mut outputs: Vec<(usize, DenseMatrix<f32>)> = Vec::new();
    let (report, (before_update, revisions, promoted)) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(4))
                .tiering(TierPolicy::new().warmup(2).foreground()),
            move |sender| {
                let engine = server_ref.mutable(id).unwrap();
                let mut sent = 0usize;
                // One request at a time until a shard has promoted.
                while engine.promotions() == 0 && sent < 64 {
                    sender.send_request(ServerRequest::new(id, input(sent as u64))).unwrap();
                    sent += 1;
                    while answered_ref.load(Ordering::SeqCst) < sent {
                        std::thread::yield_now();
                    }
                }
                let promoted = engine.promotions();
                let before = engine.revision();
                assert!(control.apply_update(id, delta));
                assert!(control.wait_revision(id, before + 1, Duration::from_secs(10)));
                let after = engine.revision();
                for seed in 0..8u64 {
                    sender.send_request(ServerRequest::new(id, input(100 + seed))).unwrap();
                }
                (sent, (before, after), promoted)
            },
            |response| {
                assert!(response.is_completed());
                outputs.push((response.request(), (**response.output()).clone()));
                answered.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();

    assert!(promoted >= 1, "no shard promoted within {before_update} requests");
    assert_eq!(revisions.1, revisions.0 + 1, "the update advances the revision by one");
    assert_eq!(outputs.len(), before_update + 8);
    assert_eq!(report.requests, before_update + 8);
    for (request, y) in &outputs {
        let (reference, x) = if *request < before_update {
            (&a, input(*request as u64))
        } else {
            (&merged, input(100 + (*request - before_update) as u64))
        };
        assert!(
            y.approx_eq(&reference.spmm_reference(&x), 1e-4),
            "request {request} (updated at {before_update}): max diff {}",
            y.max_abs_diff(&reference.spmm_reference(&x))
        );
    }
}

#[test]
fn recompile_panic_parks_the_engine_on_tier0_for_good() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let _guard = fault::exclusive();
    let a = small_uniform();
    let pool = WorkerPool::new(2);
    let engine = scalar_tiered(&a, &pool, 1);
    let x = DenseMatrix::random(a.ncols(), D, 17);
    // Reference before arming; the recompile countdown is independent of
    // kernel entries, but keeping the discipline of fault.rs anyway.
    let (expected, _) = engine.execute(&x).unwrap();
    fault::arm_recompile_panic(1);
    assert!(!engine.promote_now(), "a crashed recompile must not promote");
    assert_eq!(engine.tier(), KernelTier::Tier0);
    assert_eq!(engine.promotions(), 0);
    // The engine still serves, bit-identically to before the crash.
    let (y, _) = engine.execute(&x).unwrap();
    assert_eq!(y.max_abs_diff(&expected), 0.0);
    assert_eq!(engine.tier(), KernelTier::Tier0);
    // Declined is terminal: even with the fault disarmed, the engine does
    // not retry the recompile.
    fault::disarm();
    assert!(!engine.promote_now());
    assert_eq!(engine.tier(), KernelTier::Tier0);
}

#[test]
fn serving_session_survives_a_recompile_crash() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let _guard = fault::exclusive();
    let a = small_uniform();
    let pool = WorkerPool::new(2);
    let engine = scalar_tiered(&a, &pool, 2);
    let server = SpmmServer::new(vec![engine]).unwrap();
    let inputs: Vec<DenseMatrix<f32>> =
        (0..12).map(|i| DenseMatrix::random(a.ncols(), D, 500 + i)).collect();
    let expected: Vec<DenseMatrix<f32>> =
        inputs.iter().map(|x| (*server.single(0).unwrap().execute(x).unwrap().0).clone()).collect();
    fault::arm_recompile_panic(1);
    let mut completed = 0usize;
    let (report, ()) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::blocking(4))
                .tiering(TierPolicy::new().warmup(2).foreground()),
            |sender| {
                for x in inputs.iter().cloned() {
                    sender.send_request(ServerRequest::new(0, x)).unwrap();
                }
            },
            |response| {
                assert!(response.is_completed(), "a recompile crash must not fail requests");
                let e = &expected[response.request()];
                assert_eq!(response.output().max_abs_diff(e), 0.0);
                completed += 1;
            },
        )
        .unwrap();
    assert_eq!(completed, inputs.len());
    assert_eq!(report.requests, inputs.len());
    assert_eq!(report.failed, 0);
    assert_eq!(report.promotions, 0, "the crashed recompile must not promote");
    assert_eq!(report.engine(0).unwrap().tier.label(), "tier0");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Promotion never changes outputs: for arbitrary small matrices and
    /// column counts, a scalar-pinned tiered engine produces bit-identical
    /// results before and after its hot-swap.
    #[test]
    fn promotion_never_changes_outputs(
        nrows in 8usize..120,
        ncols in 8usize..120,
        density in 1usize..12,
        d in 1usize..7,
        seed in 0u64..1000,
    ) {
        if !host_supports_jit() {
            return Ok(());
        }
        let nnz = (nrows * ncols * density / 40).max(1);
        let a = jitspmm_sparse::generate::uniform::<f32>(nrows, ncols, nnz, seed);
        let pool = WorkerPool::new(1);
        let engine = JitSpmmBuilder::new()
            .pool(pool.clone())
            .strategy(Strategy::row_split_dynamic_default())
            .isa(IsaLevel::Scalar)
            .tiered(TierPolicy::new().warmup(1))
            .build(&a, d)
            .unwrap();
        let x = DenseMatrix::random(ncols, d, seed.wrapping_add(1));
        let (y0, _) = engine.execute(&x).unwrap();
        prop_assert!(engine.promote_now());
        prop_assert_eq!(engine.tier(), KernelTier::Promoted);
        let (y1, _) = engine.execute(&x).unwrap();
        prop_assert_eq!(y0.max_abs_diff(&y1), 0.0);
        prop_assert!(y1.approx_eq(&a.spmm_reference(&x), 1e-4));
    }
}
