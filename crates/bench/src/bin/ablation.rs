//! Ablations of JITSPMM's two code-generation choices (experiments E7 and
//! E8): coarse-grain column merging on versus off across several column
//! counts — the non-CCM kernel keeps a runtime column loop like an AOT
//! kernel would — and the ISA tier used for the register-resident
//! accumulators (scalar / SSE-width / AVX2 / AVX-512) at `d = 16`.
//!
//! Run with: `cargo run -p jitspmm-bench --release --bin ablation [--quick]`

use jitspmm::{CpuFeatures, IsaLevel, JitSpmmBuilder, Strategy};
use jitspmm_bench::{time_best_of, HarnessConfig, TextTable};
use jitspmm_sparse::{generate, DenseMatrix};
use std::time::Duration;

fn main() {
    let config = HarnessConfig::from_args();
    let features = CpuFeatures::detect();
    if !(features.avx && features.has_fma()) {
        eprintln!("skipping ablations: host lacks AVX/FMA");
        return;
    }
    ccm_ablation(&config);
    println!();
    isa_ablation(&config, &features);
}

/// E7: the same row-split kernel with and without coarse-grain column
/// merging, on a web-like R-MAT matrix.
fn ccm_ablation(config: &HarnessConfig) {
    println!("CCM ablation: row-split dynamic, web-like R-MAT (scale 13, 250k edges)");
    let matrix = generate::rmat::<f32>(13, 250_000, generate::RmatConfig::WEB, 5);
    let mut table = TextTable::new(&["d", "ccm-on (us)", "ccm-off (us)", "ccm speedup"]);
    for d in [8usize, 16, 32, 45] {
        let x = DenseMatrix::random(matrix.ncols(), d, 3);
        let mut outputs = Vec::new();
        let mut times = Vec::new();
        for ccm in [true, false] {
            let engine = JitSpmmBuilder::new()
                .strategy(Strategy::row_split_dynamic_default())
                .ccm(ccm)
                .threads(config.threads)
                .build(&matrix, d)
                .expect("JIT compilation failed");
            let mut y = DenseMatrix::zeros(matrix.nrows(), d);
            times.push(time_best_of(config.repetitions, || {
                engine.execute_into(&x, &mut y).unwrap();
            }));
            outputs.push(y);
        }
        assert!(outputs[0].approx_eq(&outputs[1], 1e-3), "CCM on/off disagree at d = {d}");
        let speedup = times[1].as_secs_f64() / times[0].as_secs_f64();
        table.row(vec![
            d.to_string(),
            micros(times[0]),
            micros(times[1]),
            format!("{speedup:.2}x"),
        ]);
    }
    table.print();
}

/// E8: one kernel per ISA tier the host supports, on a social-network-like
/// R-MAT matrix, timed against the scalar tier.
fn isa_ablation(config: &HarnessConfig, features: &CpuFeatures) {
    println!("ISA ablation: row-split dynamic, d = 16, social-like R-MAT (scale 13, 250k edges)");
    let matrix = generate::rmat::<f32>(13, 250_000, generate::RmatConfig::GRAPH500, 9);
    let d = 16;
    let x = DenseMatrix::random(matrix.ncols(), d, 11);
    let mut table = TextTable::new(&["isa", "time (us)", "speedup over scalar"]);
    let mut scalar_time = None;
    for isa in IsaLevel::ALL {
        if !features.supports(isa) {
            continue;
        }
        let engine = JitSpmmBuilder::new()
            .strategy(Strategy::row_split_dynamic_default())
            .isa(isa)
            .threads(config.threads)
            .build(&matrix, d)
            .expect("JIT compilation failed");
        let mut y = DenseMatrix::zeros(matrix.nrows(), d);
        let time = time_best_of(config.repetitions, || {
            engine.execute_into(&x, &mut y).unwrap();
        });
        let baseline = *scalar_time.get_or_insert(time);
        let speedup = baseline.as_secs_f64() / time.as_secs_f64();
        table.row(vec![isa.name().to_string(), micros(time), format!("{speedup:.2}x")]);
    }
    table.print();
}

/// A duration in microseconds, one decimal place.
fn micros(time: Duration) -> String {
    format!("{:.1}", time.as_secs_f64() * 1e6)
}
