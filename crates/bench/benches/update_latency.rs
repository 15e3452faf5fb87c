//! Incremental-update latency benchmark: what an edge-delta costs against a
//! compiled sharded engine, versus re-planning and recompiling the whole
//! matrix from scratch. For a sweep of touched-shard fractions (one shard,
//! half the shards, every shard) it times the sparse delta merge alone
//! ([`CsrMatrix::apply_delta`]), the full incremental
//! [`MutableSpmm::apply`] (merge + shard-local recompile + generation
//! swap), and the from-scratch baseline (re-plan + compile every shard),
//! then asserts the updated engine multiplies bit-identically to the
//! rebuilt one. The payoff claim: on small touched fractions the
//! incremental path beats the full rebuild because untouched shards adopt
//! their compiled cores instead of regenerating code.
//!
//! Run with: `cargo bench -p jitspmm-bench --bench update_latency`
//! (add `-- --quick` for a fast pass). Emits a human-readable table on
//! stdout and machine-readable JSON to `BENCH_update_latency.json`,
//! including the host core count so archived numbers stay interpretable.

use jitspmm::shard::plan_shards;
use jitspmm::{CpuFeatures, MutableSpmm, WorkerPool};
use jitspmm_bench::{emit_bench_json, fmt_secs, host_cores, json_stats, measure, TextTable};
use jitspmm_sparse::{generate, DeltaBatch, DenseMatrix};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let features = CpuFeatures::detect();
    if !(features.avx && features.has_fma()) {
        eprintln!("update_latency: host lacks AVX/FMA, skipping");
        return;
    }
    let cores = host_cores();
    let workers = cores.clamp(2, 4);
    let reps = if quick { 5 } else { 15 };
    let d = 16usize;
    let shards = 8usize;
    let (nnz, side) = if quick { (60_000, 2_000) } else { (240_000, 8_000) };
    let a = generate::uniform::<f32>(side, side, nnz, 5);
    let pool = WorkerPool::new(workers);
    // The initial plan's row ranges, used to aim each delta at an exact
    // number of shards (the engine under test starts from the same cut).
    let plan = plan_shards(&a, shards, 1).expect("plan");
    let ranges: Vec<std::ops::Range<usize>> =
        plan.shards().iter().map(|s| s.rows.start..s.rows.end).collect();
    drop(plan);

    println!(
        "incremental update latency: {side}x{side} nnz={nnz} d={d} {shards} shards \
         ({workers} pool workers, {cores} host cores, {reps} reps)\n"
    );
    let mut table = TextTable::new(&[
        "touched shards",
        "delta merge (best)",
        "incremental apply (best)",
        "full rebuild (best)",
        "incr/full",
    ]);
    let mut json_rows = Vec::new();

    for touched in [1usize, shards / 2, shards] {
        // A few upserts per targeted shard: enough to force that shard's
        // re-materialize + recompile, far too little to drift the balance
        // past the re-plan threshold.
        let mut delta = DeltaBatch::new();
        for range in ranges.iter().take(touched) {
            for k in 0..8usize {
                let row = range.start + (k * 37) % range.len().max(1);
                delta.upsert(row, (row * 31 + k) % side, 0.5 + k as f32 * 0.25);
            }
        }

        // The sparse merge alone — the floor any update path pays.
        let merge = measure(reps, || drop(a.apply_delta(&delta).expect("merge")));

        // The incremental path: merge touched shards, recompile them,
        // adopt the rest, swap the generation. Repeated applies are the
        // steady state of a stream of deltas (same rows stay hot).
        let engine = MutableSpmm::compile(&a, shards, 1, d, pool.clone()).expect("compile");
        let incremental = measure(reps, || {
            let report = engine.apply(&delta).expect("apply");
            assert_eq!(report.rebuilt_shards, touched, "delta must hit {touched} shards");
            assert!(!report.replanned, "sweep deltas must stay under the re-plan threshold");
        });

        // The from-scratch baseline: re-cut and recompile every shard of
        // the merged matrix — what a non-incremental engine pays per delta.
        let merged = engine.merged_matrix();
        let full = measure(reps, || {
            drop(MutableSpmm::compile(&merged, shards, 1, d, pool.clone()).expect("recompile"));
        });

        // The updated engine must match the from-scratch compile bit for bit.
        let fresh = MutableSpmm::compile(&merged, shards, 1, d, pool.clone()).expect("compile");
        let x = DenseMatrix::random(side, d, 7);
        let (y_inc, _) = pool.scope(|s| engine.execute(s, &x)).expect("execute");
        let (y_ref, _) = pool.scope(|s| fresh.execute(s, &x)).expect("execute");
        assert_eq!(
            y_inc.max_abs_diff(&y_ref),
            0.0,
            "incremental engine must be bit-identical to a from-scratch compile"
        );
        drop((y_inc, y_ref, fresh));

        table.row(vec![
            format!("{touched}/{shards}"),
            fmt_secs(merge.best),
            fmt_secs(incremental.best),
            fmt_secs(full.best),
            format!("{:.3}", incremental.best.as_secs_f64() / full.best.as_secs_f64().max(1e-12)),
        ]);
        json_rows.push(format!(
            r#"    {{"touched_shards": {touched}, "delta_merge": {}, "incremental_apply": {}, "full_rebuild": {}}}"#,
            json_stats(&merge),
            json_stats(&incremental),
            json_stats(&full)
        ));
    }

    table.print();
    println!(
        "\n(delta merge = CsrMatrix::apply_delta alone; incremental apply = shard-local \
         merge + recompile + generation swap; full rebuild = re-plan + compile all \
         {shards} shards of the merged matrix)"
    );

    let json = format!(
        "{{\n  \"bench\": \"update_latency\",\n  \"repetitions\": {reps},\n  \"pool_workers\": {workers},\n  \"host_cores\": {cores},\n  \"nnz\": {nnz},\n  \"d\": {d},\n  \"shards\": {shards},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
    );
    emit_bench_json("BENCH_update_latency.json", &json);
}
