//! The kernel phase, and the whole of the `kernel-suite` workload's own
//! share: the paper's claim. The JIT kernel on a pool of `nproc` workers
//! over the six Table III stand-ins of `datasets::quick_suite()` (one per
//! structural family), for d ∈ {16, 32} and the three workload-division
//! strategies, against the vectorized AOT baseline (Fig 9). The traced run
//! also drives a closed loop of `JitSpmm::execute` over the same suite.

use crate::arrivals::Rng;
use crate::report::{Metrics, Tally};
use crate::stats;
use crate::trace::Trace;
use jitspmm::baseline::vectorized::spmm_vectorized_on;
use jitspmm::{ExecutionReport, JitSpmm, JitSpmmBuilder, Strategy, WorkerPool};
use jitspmm_sparse::datasets::{self, DatasetClass};
use jitspmm_sparse::{CsrMatrix, DenseMatrix};
use std::time::{Duration, Instant};

pub const DS: [usize; 2] = [16, 32];
pub const STRATEGIES: [(&str, Strategy); 3] = [
    ("row_split", Strategy::RowSplitDynamic { batch: 128 }),
    ("nnz_split", Strategy::NnzSplit),
    ("merge_split", Strategy::MergeSplit),
];
/// Pool creations plus full builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// The suite runs at 1/SCALE of `quick_suite()`'s rows and non-zeros.
/// At full size the kernels stream 15-60 MB from a last-level cache and
/// memory shared with other tenants, and single calls of the same kernel
/// took from 1x to 2x their fastest time on a shared 2-vCPU host, so a
/// run fitted only 7 rounds, too few to pin a median. At 1/8 the largest
/// working set is under 10 MB and a run fits about 90 rounds.
const SCALE: usize = 8;
/// Copies of each dense input and output that the rounds of
/// [`speedup_loop`] rotate through. Where X and Y sit in memory moves the
/// kernels' time: within one process, the row-split JIT kernel on four
/// copies of the same GAP-urand input (d = 16) took 0.90, 1.37, 1.37 and
/// 1.28 ms, and the fast copy was a different one from process to process.
/// Averaging over copies measures the kernel rather than one draw of the
/// allocator.
const PLACEMENTS: usize = 8;
/// Fewest rounds of [`speedup_loop`], however short the phase: two per
/// placement.
const MIN_ROUNDS: usize = 2 * PLACEMENTS;
/// Relative tolerance against `spmm_reference`.
const TOLERANCE: f64 = 1e-4;

pub struct Dataset {
    pub name: &'static str,
    pub matrix: CsrMatrix<f32>,
    /// One dense input per entry of [`DS`].
    pub inputs: Vec<DenseMatrix<f32>>,
}

impl Dataset {
    /// Bytes one SpMM touches at least once: CSR arrays, X and Y.
    pub fn computed_bytes(&self, d: usize) -> f64 {
        let m = &self.matrix;
        (8 * (m.nrows() + 1) + 8 * m.nnz() + 4 * d * (m.ncols() + m.nrows())) as f64
    }

    pub fn flops(&self, d: usize) -> f64 {
        2.0 * self.matrix.nnz() as f64 * d as f64
    }
}

/// Generate the suite at 1/[`SCALE`]. The seed perturbs each generator seed
/// and picks the dense inputs; generation is the benchmark's work and is
/// not timed.
pub fn load(seed: u64) -> Vec<Dataset> {
    datasets::quick_suite()
        .into_iter()
        .map(|mut spec| {
            let mut rng = Rng::derive(seed, spec.name);
            spec.scaled_rows /= SCALE;
            spec.scaled_nnz /= SCALE;
            if let DatasetClass::Mycielskian { order } = spec.class {
                // Each order roughly triples the non-zeros.
                spec.class = DatasetClass::Mycielskian { order: order - 2 };
            }
            spec.seed = spec.seed.wrapping_add(rng.below(1 << 32));
            let matrix = spec.generate::<f32>();
            let inputs = DS
                .iter()
                .map(|&d| DenseMatrix::random(matrix.ncols(), d, rng.next_u64()))
                .collect();
            Dataset { name: spec.name, matrix, inputs }
        })
        .collect()
}

/// One compiled configuration of the suite.
pub struct Config<'a> {
    pub dataset: usize,
    pub d_index: usize,
    pub strategy: usize,
    pub engine: JitSpmm<'a, f32>,
}

/// Create the pool and build every configuration, timing each build.
pub fn build_all<'a>(
    suite: &'a [Dataset],
    nproc: usize,
    trace: &mut Trace,
) -> Result<(WorkerPool, Vec<Config<'a>>, Duration), String> {
    let started = Instant::now();
    let pool = WorkerPool::new(nproc);
    let mut configs = Vec::new();
    for (dataset, ds) in suite.iter().enumerate() {
        for (d_index, &d) in DS.iter().enumerate() {
            for (strategy, &(_, s)) in STRATEGIES.iter().enumerate() {
                let engine = trace
                    .time("codegen.build", || {
                        JitSpmmBuilder::new()
                            .pool(pool.clone())
                            .threads(nproc)
                            .strategy(s)
                            .build(&ds.matrix, d)
                    })
                    .map_err(|e| format!("build {} d={d}: {e}", ds.name))?;
                configs.push(Config { dataset, d_index, strategy, engine });
            }
        }
    }
    Ok((pool, configs, started.elapsed()))
}

/// Check every configuration once against `spmm_reference`, outside any
/// timed region; returns the mismatches and each configuration's
/// steady-state call time for sizing the loop.
pub fn check(suite: &[Dataset], configs: &[Config<'_>]) -> Result<(usize, Vec<Duration>), String> {
    let mut mismatches = 0;
    let mut times = Vec::new();
    for (dataset, ds) in suite.iter().enumerate() {
        for (d_index, x) in ds.inputs.iter().enumerate() {
            let want = ds.matrix.spmm_reference(x);
            for c in configs.iter().filter(|c| c.dataset == dataset && c.d_index == d_index) {
                let (y, _) = c.engine.execute(x).map_err(|e| format!("execute: {e}"))?;
                if !y.approx_eq(&want, TOLERANCE) {
                    eprintln!(
                        "mismatch: {} d={} {}",
                        ds.name, DS[d_index], STRATEGIES[c.strategy].0
                    );
                    mismatches += 1;
                }
                drop(y);
                let at = Instant::now();
                drop(c.engine.execute(x).map_err(|e| format!("execute: {e}"))?);
                times.push(at.elapsed());
            }
        }
    }
    Ok((mismatches, times))
}

/// Per-configuration samples of the closed loop.
pub struct Loop {
    pub reports: Vec<Vec<ExecutionReport>>,
    pub calls: usize,
}

/// Run `rounds` rounds of one timed `execute` per configuration. Rounds
/// interleave the configurations so that a burst of interference from
/// outside the process lands on every configuration's sample rather than
/// shifting one configuration's median; each call whose matrix differs
/// from the previous call's is preceded by an untimed warm-up call.
pub fn closed_loop(
    runs: &[(&JitSpmm<'_, f32>, &DenseMatrix<f32>)],
    rounds: usize,
    trace: &mut Trace,
) -> Result<Loop, String> {
    let mut reports = vec![Vec::with_capacity(rounds); runs.len()];
    for _ in 0..rounds {
        let mut previous: Option<*const u64> = None;
        for (i, (engine, x)) in runs.iter().enumerate() {
            let matrix = engine.matrix().row_ptr().as_ptr();
            if previous != Some(matrix) {
                drop(engine.execute(x).map_err(|e| format!("execute: {e}"))?);
                previous = Some(matrix);
            }
            let at = Instant::now();
            let (y, report) =
                engine.execute(std::hint::black_box(x)).map_err(|e| format!("execute: {e}"))?;
            let end = Instant::now();
            std::hint::black_box(&y);
            trace.record("engine.execute", at, end);
            reports[i].push(report);
        }
    }
    Ok(Loop { reports, calls: rounds * runs.len() })
}

/// The (engine, input) pairs of the suite, in configuration order.
pub fn runs<'e, 'a>(
    suite: &'e [Dataset],
    configs: &'e [Config<'a>],
) -> Vec<(&'e JitSpmm<'a, f32>, &'e DenseMatrix<f32>)> {
    configs.iter().map(|c| (&c.engine, &suite[c.dataset].inputs[c.d_index])).collect()
}

/// Rounds that fill `seconds`, given one call time per configuration; at
/// least enough for the traced run's per-strategy p95 (12 configurations
/// each) to leave ten samples beyond it.
pub fn rounds_for(seconds: f64, times: &[Duration]) -> usize {
    let round: f64 = times.iter().map(Duration::as_secs_f64).sum();
    let min = 1000usize.div_ceil(times.len().max(1)) + 1;
    ((seconds / round.max(1e-6)) as usize).clamp(min, 5000)
}

/// Per-configuration call times of [`speedup_loop`], in seconds.
pub struct Speedups {
    pub jit: Vec<Vec<f64>>,
    pub aot: Vec<Vec<f64>>,
    pub rounds: usize,
}

impl Speedups {
    /// Per strategy: the median AOT time over the median JIT time of each
    /// configuration and placement, as a geomean over placements, datasets
    /// and d.
    pub fn per_strategy(&self, configs: &[Config<'_>]) -> [f64; 3] {
        let median_at = |times: &[f64], placement: usize| {
            stats::median_of(
                &times.iter().skip(placement).step_by(PLACEMENTS).copied().collect::<Vec<_>>(),
            )
        };
        let mut out = [0.0; 3];
        for (s, slot) in out.iter_mut().enumerate() {
            let ratios: Vec<f64> = configs
                .iter()
                .enumerate()
                .filter(|(_, c)| c.strategy == s)
                .flat_map(|(i, _)| {
                    (0..PLACEMENTS)
                        .map(move |p| median_at(&self.aot[i], p) / median_at(&self.jit[i], p))
                })
                .collect();
            *slot = stats::geomean(&ratios);
        }
        out
    }
}

/// Rounds of the JIT kernel against the vectorized AOT baseline until
/// `seconds` have passed, and at least [`MIN_ROUNDS`]. A round runs every
/// configuration once: `execute_into` on a preallocated output, then
/// `spmm_vectorized_on` with the same strategy, pool, input and output.
/// The two calls of a pair run back to back, so a slow stretch of the
/// shared host's memory system slows both sides of the ratio alike. Round
/// r uses copy r % [`PLACEMENTS`] of each input and output. A change of
/// dataset or d is preceded by an untimed call.
pub fn speedup_loop(
    suite: &[Dataset],
    configs: &[Config<'_>],
    pool: &WorkerPool,
    nproc: usize,
    seconds: f64,
) -> Result<Speedups, String> {
    let mut jit = vec![Vec::new(); configs.len()];
    let mut aot = vec![Vec::new(); configs.len()];
    // Copies of each input and output per (dataset, d), indexed
    // `dataset * DS.len() + d_index`.
    let inputs: Vec<Vec<DenseMatrix<f32>>> =
        suite.iter().flat_map(|ds| ds.inputs.iter().map(|x| vec![x.clone(); PLACEMENTS])).collect();
    let mut outputs: Vec<Vec<DenseMatrix<f32>>> = suite
        .iter()
        .flat_map(|ds| {
            DS.iter().map(|&d| vec![DenseMatrix::zeros(ds.matrix.nrows(), d); PLACEMENTS])
        })
        .collect();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let mut previous = None;
        for (i, c) in configs.iter().enumerate() {
            let ds = &suite[c.dataset];
            let group = c.dataset * DS.len() + c.d_index;
            let x = &inputs[group][rounds % PLACEMENTS];
            let y = &mut outputs[group][rounds % PLACEMENTS];
            if previous != Some(group) {
                c.engine.execute_into(x, y).map_err(|e| format!("execute_into: {e}"))?;
                previous = Some(group);
            }
            let at = Instant::now();
            c.engine
                .execute_into(std::hint::black_box(x), y)
                .map_err(|e| format!("execute_into: {e}"))?;
            let mid = Instant::now();
            let strategy = STRATEGIES[c.strategy].1;
            spmm_vectorized_on(pool, &ds.matrix, std::hint::black_box(x), y, strategy, nproc);
            let end = Instant::now();
            jit[i].push((mid - at).as_secs_f64());
            aot[i].push((end - mid).as_secs_f64());
        }
        rounds += 1;
    }
    Ok(Speedups { jit, aot, rounds })
}

/// The three per-strategy end-to-end metrics.
pub fn push_speedups([row, nnz, merge]: [f64; 3], metrics: &mut Metrics) {
    metrics.push("row_split_speedup", row, "ratio");
    metrics.push("nnz_split_speedup", nnz, "ratio");
    metrics.push("merge_split_speedup", merge, "ratio");
}

/// What the kernel phase of an untraced run measured.
pub struct KernelRun {
    pub setup_s: f64,
    pub speedups: [f64; 3],
    pub tally: Tally,
}

/// The untraced kernel phase: [`SETUP_REPS`] timed set-ups, every
/// configuration checked once, then [`speedup_loop`] for `seconds`.
pub fn run_phase(seed: u64, seconds: f64) -> Result<KernelRun, String> {
    let nproc = crate::nproc();
    let suite = load(seed);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS - 1 {
        let (pool, configs, took) = build_all(&suite, nproc, &mut Trace::new(false))?;
        setups.push(took.as_secs_f64());
        drop(configs);
        drop(pool);
    }
    let (pool, configs, took) = build_all(&suite, nproc, &mut Trace::new(false))?;
    setups.push(took.as_secs_f64());
    let (mismatches, _) = check(&suite, &configs)?;
    let run = speedup_loop(&suite, &configs, &pool, nproc, seconds)?;
    eprintln!("kernel phase: {} configs x {} rounds", configs.len(), run.rounds);
    Ok(KernelRun {
        setup_s: stats::median_of(&setups),
        speedups: run.per_strategy(&configs),
        tally: Tally {
            attempted: 2 * run.rounds * configs.len() + configs.len(),
            failed: 0,
            mismatches,
        },
    })
}
