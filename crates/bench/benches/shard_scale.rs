//! Sharded-execution scaling benchmark: a sharded [`MutableSpmm`] over K
//! nnz-balanced shards of one large power-law matrix, versus the single
//! unsharded engine on the same pool — across K ∈ {1, 2, 4, 8}.
//!
//! K = 1 measures the sharding layer's pure overhead (one shard, one
//! engine, plus the stitch bookkeeping); larger K measures whether
//! overlapped lane-capped shard launches buy wall-clock time. On a
//! single-core host nothing can overlap, so sharded execution degrades to
//! sequential shard-by-shard launches and <1x is the honest expectation;
//! on multi-core the disjoint-lane overlap is what this bench tracks
//! (re-baseline when the hardware changes — the JSON records `host_cores`).
//!
//! Run with: `cargo bench -p jitspmm-bench --bench shard_scale`
//! (add `-- --quick` for a fast pass). Emits a table on stdout and
//! machine-readable JSON to `BENCH_shard_scale.json`, including each plan's
//! achieved nnz imbalance — the planner's ≤1.10 balance target on
//! power-law inputs is asserted here, so a planner regression fails the
//! bench rather than silently skewing the numbers.

use jitspmm::shard::plan_shards;
use jitspmm::{CpuFeatures, JitSpmmBuilder, MutableSpmm, WakeSlot, WorkerPool};
use jitspmm_bench::{
    emit_bench_json, geometric_mean, host_cores, json_stats, measure_interleaved, TextTable,
};
use jitspmm_sparse::{generate, DenseMatrix};

/// Dense columns, the paper's GNN-ish middle ground.
const D: usize = 16;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let features = CpuFeatures::detect();
    if !(features.avx && features.has_fma()) {
        eprintln!("shard_scale: host lacks AVX/FMA, skipping");
        return;
    }
    let cores = host_cores();
    // At least two workers, so shard launches can overlap the submitting
    // thread — the configuration sharding exists for.
    let workers = cores.max(2);
    let reps = if quick { 4 } else { 10 };
    let (scale, nnz) = if quick { (12, 150_000) } else { (14, 800_000) };
    let a = generate::rmat::<f32>(scale, nnz, generate::RmatConfig::GRAPH500, 9);
    let x = DenseMatrix::random(a.ncols(), D, 0xC0FFEE);
    println!(
        "sharded vs single-engine execution: {} x {} power-law matrix, {} non-zeros, d = {D} \
         ({workers} pool workers, {cores} host cores)\n",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );

    let pool = WorkerPool::new(workers);
    let single = JitSpmmBuilder::new()
        .pool(pool.clone())
        .threads(workers)
        .build(&a, D)
        .expect("JIT compilation failed");
    let (reference, _) = single.execute(&x).expect("single-engine execution failed");
    let reference = reference.into_dense();

    let mut table = TextTable::new(&[
        "shards",
        "lanes/shard",
        "nnz imbalance",
        "plan bytes (borrowed/owned-equiv)",
        "single/run",
        "sharded/run",
        "speedup(mean)",
        "wake p50/p99",
    ]);
    let mut json_rows = Vec::new();
    let mut speedups = Vec::new();
    // A small pipelined batch per shard count, to sample the deferred-launch
    // wake (enqueue -> first claim) latency the futex path targets.
    let wake_inputs: Vec<DenseMatrix<f32>> = (0..if quick { 8 } else { 32 })
        .map(|i| DenseMatrix::random(a.ncols(), D, 7_000 + i as u64))
        .collect();

    for k in [1usize, 2, 4, 8] {
        let lanes = (workers / k).max(1);
        let plan = plan_shards(&a, k, lanes).expect("planning failed");
        assert!(
            plan.nnz_imbalance() <= 1.10,
            "planner imbalance {} exceeds the 1.10 target on a power-law matrix (k = {k})",
            plan.nnz_imbalance()
        );
        // Plan memory: shards are zero-copy views, so the plan holds only
        // each shard's rebased row_ptr; an owned extraction would copy every
        // shard's col_indices (u32) and values (f32) as well.
        assert!(
            plan.shards().iter().all(|s| s.matrix.shares_storage_with(&a)),
            "shard plan copied nnz arrays (k = {k})"
        );
        let plan_bytes_borrowed: usize =
            plan.shards().iter().map(|s| (s.rows.len() + 1) * std::mem::size_of::<u64>()).sum();
        let plan_bytes_owned_equiv: usize = plan_bytes_borrowed
            + plan
                .shards()
                .iter()
                .map(|s| s.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>()))
                .sum::<usize>();
        let sharded =
            MutableSpmm::compile(&a, k, lanes, D, pool.clone()).expect("shard compile failed");

        // Correctness first: the stitched result must equal the unsharded
        // engine's, bit for bit.
        let (y, report) = pool.scope(|scope| sharded.execute(scope, &x)).expect("sharded run");
        assert_eq!(*y, reference, "sharded result diverged at k = {k}");
        assert_eq!(report.shards, plan.len());
        drop(y);

        let (single_stats, sharded_stats) = measure_interleaved(
            reps,
            || {
                let _ = single.execute(&x).unwrap();
            },
            || {
                let _ = pool.scope(|scope| sharded.execute(scope, &x)).unwrap();
            },
        );
        let speedup_mean = single_stats.mean.as_secs_f64() / sharded_stats.mean.as_secs_f64();
        speedups.push(speedup_mean);

        // Wake latency of the pipelined (deferred-launch) path: the batch
        // report's per-input wake percentiles, merged across shards.
        let (outputs, batch_report) =
            pool.scope(|scope| sharded.execute_batch(scope, &wake_inputs)).expect("wake batch");
        drop(outputs);
        let (wake_p50, wake_p99) = (batch_report.merged.wake_p50, batch_report.merged.wake_p99);

        table.row(vec![
            plan.len().to_string(),
            lanes.to_string(),
            format!("{:.3}", plan.nnz_imbalance()),
            format!("{plan_bytes_borrowed} / {plan_bytes_owned_equiv}"),
            format!("{:?}", single_stats.mean),
            format!("{:?}", sharded_stats.mean),
            format!("{speedup_mean:.2}x"),
            format!("{wake_p50:?} / {wake_p99:?}"),
        ]);
        let strategies: Vec<String> =
            plan.shards().iter().map(|s| format!("\"{}\"", s.strategy)).collect();
        json_rows.push(format!(
            r#"    {{"shards": {}, "lanes_per_shard": {lanes}, "nnz_imbalance": {:.4}, "strategies": [{}], "plan_bytes_borrowed": {plan_bytes_borrowed}, "plan_bytes_owned_equiv": {plan_bytes_owned_equiv}, "single": {}, "sharded": {}, "speedup_mean": {speedup_mean:.4}, "wake_p50_ns": {}, "wake_p99_ns": {}}}"#,
            plan.len(),
            plan.nnz_imbalance(),
            strategies.join(", "),
            json_stats(&single_stats),
            json_stats(&sharded_stats),
            wake_p50.as_nanos(),
            wake_p99.as_nanos(),
        ));
    }

    table.print();
    let headline = geometric_mean(&speedups);
    println!(
        "\nsharded vs single engine (geometric mean over shard counts, by mean time): \
         {headline:.2}x"
    );
    println!(
        "(on a single-core host shard launches cannot overlap — they run back to back and \
         the stitch bookkeeping is pure overhead, so <1x is expected and recorded honestly; \
         on multi-core the disjoint-lane overlap across shards is what this bench tracks — \
         re-baseline when host_cores changes)"
    );

    let json = format!(
        "{{\n  \"bench\": \"shard_scale\",\n  \"d\": {D},\n  \"matrix_rows\": {},\n  \
         \"matrix_nnz\": {},\n  \"pool_workers\": {workers},\n  \"host_cores\": {cores},\n  \
         \"futex_wake\": {},\n  \
         \"results\": [\n{}\n  ],\n  \"sharded_vs_single_speedup_mean\": {headline:.4}\n}}\n",
        a.nrows(),
        a.nnz(),
        WakeSlot::FUTEX_BACKED,
        json_rows.join(",\n"),
    );
    emit_bench_json("BENCH_shard_scale.json", &json);
}
