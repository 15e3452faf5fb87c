//! The traced run (`--trace 1`): per-layer metrics. Every traced run covers
//! every layer, in three sections — kernels, serving, updates — so each
//! workload's traced run reports the full per-layer set; the section that
//! matches the workload runs for `--seconds`, the other two for a quarter
//! of that. Spans are recorded around calls into each layer's public
//! functions from this crate and reduced to metrics once the run has ended.

use crate::arrivals::Rng;
use crate::kernels::{self, Dataset, DS, STRATEGIES};
use crate::loadgen::{Op, Planned};
use crate::report::{Metrics, Tally};
use crate::served::{self, Ack, DeltaGen, KeptOutput, Traffic, Uniform, TOLERANCE};
use crate::server::{self, Server};
use crate::stats::{self, Sample};
use crate::trace::{us, Trace};
use jitspmm::baseline::{mkl_like::spmm_mkl_like_f32_on, vectorized::spmm_vectorized_on};
use jitspmm::profile::measure_jit_emulated;
use jitspmm::serve::{AdmissionPolicy, ServeOptions, ServerRequest, ServerResponse, SpmmServer};
use jitspmm::{
    plan_shards, CacheStats, ExecutionReport, JitSpmmBuilder, KernelCache, MutableSpmm,
    ShardOptions, UpdateReport, WorkerPool,
};
use jitspmm_sparse::generate::{self, RmatConfig};
use jitspmm_sparse::{CsrMatrix, DenseMatrix};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Repetitions of each baseline call (median taken).
const BASELINE_REPS: usize = 5;
/// Admission policy `jitspmm-serve` serves with (`--queue 64`, shedding).
const SERVE_QUEUE: usize = 64;
/// Offered rate of the capacity phase, as a multiple of the nominal rate:
/// well past what the server sustains, so replies arrive at capacity.
const OVERLOAD: f64 = 12.0;
/// How long the replay waits for one update to be swapped in.
const SWAP_TIMEOUT: Duration = Duration::from_secs(10);

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    bin: &Path,
    work: &Path,
) -> Result<(Tally, Metrics), String> {
    let length = |own: &str| if workload == own { seconds } else { seconds / 4.0 };
    let mut trace = Trace::new(true);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    kernel_layers(seed, length("kernel-suite"), &mut trace, &mut m, &mut tally)?;
    serve_layers(bin, seed, length("serve-open-loop"), &mut trace, &mut m, &mut tally)?;
    update_layers(seed, length("update-mixed"), work, &mut trace, &mut m, &mut tally)?;
    m.push("client.failed_share", tally.failed_share(), "ratio");
    eprintln!("spans recorded: {:?}", trace.census());
    Ok((tally, m))
}

fn sample_us(trace: &Trace, name: &str) -> Sample {
    Sample::new(trace.durations_us(name))
}

fn median_secs(times: &[Duration]) -> f64 {
    stats::median_of(&times.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// `codegen`, `engine`, `baseline`, `profile` (the emulator) and the
/// paper's Fig 9/10 ratios, on the `kernel-suite` inputs.
fn kernel_layers(
    seed: u64,
    seconds: f64,
    trace: &mut Trace,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let nproc = crate::nproc();
    let suite = kernels::load(seed);
    for ds in &suite {
        m.push(format!("host.working_set_bytes.{}", ds.name), ds.computed_bytes(32), "bytes");
    }
    let (pool, configs, _) = kernels::build_all(&suite, nproc, trace)?;
    m.push("codegen.build_us", sample_us(trace, "codegen.build").median(), "us");
    let code: usize = configs.iter().map(|c| c.engine.kernel().code().len()).sum();
    m.push("codegen.code_bytes", code as f64, "bytes");
    let (mismatches, times) = kernels::check(&suite, &configs)?;
    let lp = kernels::closed_loop(
        &kernels::runs(&suite, &configs),
        kernels::rounds_for(seconds, &times),
        trace,
    )?;
    tally.add(lp.calls + configs.len(), 0);
    tally.mismatches += mismatches;

    let kernel_secs =
        |i: usize| median_secs(&lp.reports[i].iter().map(|r| r.kernel).collect::<Vec<_>>());
    for (s, (name, _)) in STRATEGIES.iter().enumerate() {
        let k: Vec<f64> = configs
            .iter()
            .zip(&lp.reports)
            .filter(|(c, _)| c.strategy == s)
            .flat_map(|(_, r)| r.iter().map(|r| us(r.kernel)))
            .collect();
        let k = Sample::new(k);
        m.push(format!("engine.kernel_us.{name}.p50"), k.checked(50.0)?, "us");
        m.push(format!("engine.kernel_us.{name}.p95"), k.checked(95.0)?, "us");
    }
    let rate =
        |i: usize| suite[configs[i].dataset].flops(DS[configs[i].d_index]) / kernel_secs(i) / 1e9;
    let group = |keep: &dyn Fn(usize) -> bool| -> Vec<usize> {
        (0..configs.len()).filter(|&i| keep(i)).collect()
    };
    for (di, ds) in suite.iter().enumerate() {
        let rates: Vec<f64> = group(&|i| configs[i].dataset == di).into_iter().map(rate).collect();
        m.push(format!("engine.gflops.{}", ds.name), stats::geomean(&rates), "GFLOP/s");
    }
    for (dj, d) in DS.iter().enumerate() {
        let rates: Vec<f64> = group(&|i| configs[i].d_index == dj).into_iter().map(rate).collect();
        m.push(format!("engine.gflops.d{d}"), stats::geomean(&rates), "GFLOP/s");
    }
    let bytes = |i: usize| suite[configs[i].dataset].computed_bytes(DS[configs[i].d_index]);
    let all: Vec<usize> = (0..configs.len()).collect();
    m.push(
        "engine.computed_bytes",
        stats::geomean(&all.iter().map(|&i| bytes(i)).collect::<Vec<_>>()),
        "bytes",
    );
    let gbps: Vec<f64> = all.iter().map(|&i| bytes(i) / kernel_secs(i) / 1e9).collect();
    m.push("engine.effective_gbps", stats::geomean(&gbps), "GB/s");

    baselines(&suite, &configs, &pool, nproc, trace, m)?;
    drop(configs);
    profile_counts(&pool, m, tally)
}

/// The AOT baselines on the same inputs, and the Fig 9 / Fig 10 speedups of
/// the JIT kernel over them. Both sides are timed the same way, as
/// `fig9`/`fig10` do: into a preallocated output, one warm-up call, then the
/// median of [`BASELINE_REPS`] back-to-back calls.
fn baselines(
    suite: &[Dataset],
    configs: &[kernels::Config<'_>],
    pool: &WorkerPool,
    nproc: usize,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut vec_rates = Vec::new();
    let mut mkl_rates = Vec::new();
    // [strategy][d] -> per-dataset speedups
    let mut over_vec = vec![vec![Vec::new(); DS.len()]; STRATEGIES.len()];
    let mut over_mkl = vec![vec![Vec::new(); DS.len()]; STRATEGIES.len()];
    for (di, ds) in suite.iter().enumerate() {
        for (dj, &d) in DS.iter().enumerate() {
            let x = &ds.inputs[dj];
            let mut y = DenseMatrix::zeros(ds.matrix.nrows(), d);
            let mut timed = |name: &'static str,
                             trace: &mut Trace,
                             f: &mut dyn FnMut(&mut DenseMatrix<f32>)| {
                f(&mut y);
                let times: Vec<Duration> = (0..BASELINE_REPS)
                    .map(|_| {
                        let at = Instant::now();
                        f(&mut y);
                        let end = Instant::now();
                        trace.record(name, at, end);
                        end - at
                    })
                    .collect();
                median_secs(&times)
            };
            let mkl = timed("baseline.mkl_like", trace, &mut |y| {
                spmm_mkl_like_f32_on(pool, &ds.matrix, x, y, nproc)
            });
            mkl_rates.push(ds.flops(d) / mkl / 1e9);
            for (s, &(_, strategy)) in STRATEGIES.iter().enumerate() {
                let vec = timed("baseline.vectorized", trace, &mut |y| {
                    spmm_vectorized_on(pool, &ds.matrix, x, y, strategy, nproc)
                });
                vec_rates.push(ds.flops(d) / vec / 1e9);
                let i = configs
                    .iter()
                    .position(|c| c.dataset == di && c.d_index == dj && c.strategy == s)
                    .expect("every configuration was built");
                let engine = &configs[i].engine;
                let jit = timed("engine.execute_into", trace, &mut |y| {
                    engine.execute_into(x, y).expect("shapes match the built engine");
                });
                over_vec[s][dj].push(vec / jit);
                over_mkl[s][dj].push(mkl / jit);
            }
        }
    }
    m.push("baseline.vectorized.gflops", stats::geomean(&vec_rates), "GFLOP/s");
    m.push("baseline.mkl_like.gflops", stats::geomean(&mkl_rates), "GFLOP/s");
    for (s, (name, _)) in STRATEGIES.iter().enumerate() {
        for (dj, d) in DS.iter().enumerate() {
            m.push(
                format!("paper.jit_over_vectorized.{name}.d{d}"),
                stats::geomean(&over_vec[s][dj]),
                "ratio",
            );
            m.push(
                format!("paper.jit_over_mkl_like.{name}.d{d}"),
                stats::geomean(&over_mkl[s][dj]),
                "ratio",
            );
        }
    }
    Ok(())
}

/// Exact event counts of the generated code, from the instruction-level
/// emulator, on one fixed small web-crawl stand-in (not seeded, so the
/// counts repeat between runs).
fn profile_counts(pool: &WorkerPool, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let matrix = generate::rmat::<f32>(11, 16_000, RmatConfig::WEB, 202);
    let nnz = matrix.nnz() as f64;
    for (name, strategy) in STRATEGIES {
        for d in DS {
            let engine = JitSpmmBuilder::new()
                .pool(pool.clone())
                .threads(1)
                .strategy(strategy)
                .build(&matrix, d)
                .map_err(|e| format!("build: {e}"))?;
            let x = DenseMatrix::random(matrix.ncols(), d, 7);
            let mut y = DenseMatrix::zeros(matrix.nrows(), d);
            let counts =
                measure_jit_emulated(&engine, &x, &mut y).map_err(|e| format!("emulate: {e}"))?;
            tally.add(1, 0);
            tally.mismatches += usize::from(!y.approx_eq(&matrix.spmm_reference(&x), TOLERANCE));
            m.push(
                format!("profile.instructions_per_nnz.{name}.d{d}"),
                counts.instructions as f64 / nnz,
                "1/nnz",
            );
            m.push(
                format!("profile.loads_per_nnz.{name}.d{d}"),
                counts.memory_loads as f64 / nnz,
                "1/nnz",
            );
            m.push(
                format!("profile.branches_per_nnz.{name}.d{d}"),
                counts.branches as f64 / nnz,
                "1/nnz",
            );
        }
    }
    Ok(())
}

/// What one in-process replay through `serve_controlled` measured.
struct Replay {
    admit_us: Sample,
    response_us: Sample,
    idle_wait_us: Sample,
    dispatch_us: Sample,
    wake_us: Sample,
    kernel_us: Sample,
    engine0: jitspmm::BatchReport,
    rejected: usize,
    failed: usize,
    shed_deadline: usize,
}

/// One consumer callback: request sequence number, arrival, the launch's
/// report, and the output when it is kept for the check.
type Replied = (usize, Instant, Option<ExecutionReport>, Option<Vec<f32>>);

/// Replay `plan` in process through `SpmmServer::serve_controlled`, each
/// request at its due time: MULs through `send_request`, UPDATEs through
/// `ControlHandle::apply_update`, the sender then waiting in `wait_revision`
/// until the swap lands, as a client waits for its `revision=N` reply.
/// Records `serve.admit` (the `send_request` call), `serve.response` (send
/// to consumer callback) and `update.swap_wait` spans, and checks the kept
/// outputs against every revision they could have observed.
fn replay(
    server: &SpmmServer<'_, f32>,
    traffic: &Traffic,
    plan: &[Planned],
    trace: &mut Trace,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let control = server.control();
    // Plan indices of the admitted MULs: the server numbers requests in
    // admission order. The sender pushes before sending and pops a refusal.
    let admitted = Mutex::new(Vec::new());
    let start = Instant::now() + Duration::from_millis(20);
    let mut responses: Vec<Replied> = Vec::new();
    let (report, (sends, acks, refused, failed_swaps)) = server
        .serve_controlled(
            ServeOptions::new(AdmissionPolicy::shedding(SERVE_QUEUE)),
            |sender| {
                let mut sends = Vec::new();
                let mut acks = Vec::new();
                let (mut refused, mut failed_swaps) = (0, 0);
                for (index, p) in plan.iter().enumerate() {
                    let due = start + p.due;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    match &p.op {
                        Op::Mul { engine, seed } => {
                            let input = traffic.engines[*engine as usize].input(*seed);
                            admitted.lock().expect("admitted lock").push(index);
                            let at = Instant::now();
                            let request = ServerRequest::new(*engine as usize, input);
                            if sender.send_request(request).is_ok() {
                                sends.push((at, Instant::now()));
                            } else {
                                admitted.lock().expect("admitted lock").pop();
                                refused += 1;
                            }
                        }
                        Op::Update { engine, ops } => {
                            let engine = *engine as usize;
                            let revision = acks.len() as u64 + 1;
                            let at = Instant::now();
                            let swapped = control.apply_update(engine, served::delta_batch(ops))
                                && control.wait_revision(engine, revision, SWAP_TIMEOUT);
                            failed_swaps += usize::from(!swapped);
                            acks.push(Ack { index, sent_at: at, acked_at: Instant::now() });
                        }
                    }
                }
                (sends, acks, refused, failed_swaps)
            },
            |response: ServerResponse<f32>| {
                let at = Instant::now();
                let seq = response.request();
                let index = admitted.lock().expect("admitted lock").get(seq).copied();
                let keep = index.is_some_and(|i| plan[i].keep);
                let output = (keep && response.is_completed())
                    .then(|| response.output().as_slice().to_vec());
                responses.push((seq, at, response.report().copied(), output));
            },
        )
        .map_err(|e| format!("serve: {e}"))?;
    let admitted = admitted.into_inner().expect("admitted lock");
    let unanswered = sends.len().saturating_sub(responses.len());
    tally.add(
        plan.len(),
        report.failed
            + report.rejected
            + report.shed_deadline
            + refused
            + failed_swaps
            + unanswered,
    );
    let mut admit = Vec::new();
    let mut response_us = Vec::new();
    let mut idle = Vec::new();
    let mut dispatch = Vec::new();
    let mut wake = Vec::new();
    let mut kernel = Vec::new();
    let mut kept = Vec::new();
    for &(at, end) in &sends {
        trace.record("serve.admit", at, end);
        admit.push(us(end - at));
    }
    for ack in &acks {
        trace.record("update.swap_wait", ack.sent_at, ack.acked_at);
    }
    for (seq, done, exec, output) in responses {
        let (sent, _) = *sends.get(seq).ok_or("a response to a request never admitted")?;
        trace.record("serve.response", sent, done);
        let response = us(done.saturating_duration_since(sent));
        response_us.push(response);
        if let Some(r) = exec {
            idle.push(response - us(r.dispatch) - us(r.kernel));
            dispatch.push(us(r.dispatch));
            wake.push(us(r.wake));
            kernel.push(us(r.kernel));
        }
        if let Some(values) = output {
            let index = admitted[seq];
            let Op::Mul { engine, .. } = plan[index].op else { unreachable!("MULs only") };
            let spec = &traffic.engines[engine as usize];
            let output = DenseMatrix::from_vec(spec.rows, spec.d, values);
            kept.push(KeptOutput { index, sent_at: sent, recv_at: done, output });
        }
    }
    tally.mismatches += served::check_outputs(traffic, plan, &acks, &kept, false)?;
    Ok(Replay {
        admit_us: Sample::new(admit),
        response_us: Sample::new(response_us),
        idle_wait_us: Sample::new(idle),
        dispatch_us: Sample::new(dispatch),
        wake_us: Sample::new(wake),
        kernel_us: Sample::new(kernel),
        engine0: *report.engine(0).ok_or("no report for engine 0")?,
        rejected: report.rejected,
        failed: report.failed,
        shed_deadline: report.shed_deadline,
    })
}

/// `serve`, `runtime` (as seen by served requests), `jitspmm_serve` and the
/// client: in-process replay of the `serve-open-loop` schedule, then the
/// same traffic over TCP untraced and traced, and the stage reconciliation.
fn serve_layers(
    bin: &Path,
    seed: u64,
    seconds: f64,
    trace: &mut Trace,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let nproc = crate::nproc();
    let traffic = served::open_loop_traffic(seed, nproc);
    // At least 1000 requests per phase, so every reported p99 has ten
    // samples beyond it.
    let phase = Duration::from_secs_f64((seconds / 2.0).max(1200.0 / traffic.rate));
    let mut rng = Rng::derive(seed, "served-traffic");
    let plan = served::plan_phase(&traffic, &mut rng, &mut None, traffic.rate, phase, true);
    let pool = WorkerPool::new(nproc);
    let matrices: Vec<CsrMatrix<f32>> = traffic.engines.iter().map(Uniform::matrix).collect();
    let server: SpmmServer<'_, f32> = SpmmServer::with_pool(pool.clone());
    for (spec, matrix) in traffic.engines.iter().zip(&matrices) {
        let engine = JitSpmmBuilder::new()
            .pool(pool.clone())
            .threads(nproc)
            .build(matrix, spec.d)
            .map_err(|e| format!("build: {e}"))?;
        server.add_engine(engine).map_err(|e| format!("server: {e}"))?;
    }
    let r = replay(&server, &traffic, &plan, trace, tally)?;
    drop(server);
    m.push("serve.admit_us", r.admit_us.checked(50.0)?, "us");
    m.push("serve.response_us", r.response_us.checked(50.0)?, "us");
    m.push("serve.idle_wait_us", r.idle_wait_us.checked(50.0)?, "us");
    m.push("serve.kernel_us", us(r.engine0.kernel_p50), "us");
    m.push("serve.dispatch_us", us(r.engine0.dispatch_p50), "us");
    m.push("serve.wake_us", us(r.engine0.wake_p50), "us");
    m.push("serve.rejected", r.rejected as f64, "count");
    m.push("serve.failed", r.failed as f64, "count");
    m.push("serve.shed_deadline", r.shed_deadline as f64, "count");
    m.push("runtime.dispatch_us.p50", r.dispatch_us.checked(50.0)?, "us");
    m.push("runtime.dispatch_us.p99", r.dispatch_us.checked(99.0)?, "us");
    m.push("runtime.wake_us.p50", r.wake_us.checked(50.0)?, "us");
    m.push("runtime.wake_us.p99", r.wake_us.checked(99.0)?, "us");

    let server = Server::start(bin, &served::server_args(&traffic, nproc, None))?;
    let mut conn = server.connect()?;
    for _ in 0..200 {
        let at = Instant::now();
        server::info(&mut conn)?;
        trace.record("jitspmm_serve.info", at, Instant::now());
    }
    drop(conn);
    let info_rtt = sample_us(trace, "jitspmm_serve.info").median();
    let mut rng = Rng::derive(seed, "served-traced");
    let mut client_p50 = [0.0; 2];
    let mut client_p99 = 0.0;
    let mut late_p99 = 0.0;
    for (k, traced) in [false, true].into_iter().enumerate() {
        let plan = served::plan_phase(&traffic, &mut rng, &mut None, traffic.rate, phase, true);
        let (outcomes, spans) = served::run_phase(&server, &traffic, &plan, traced)?;
        tally.mismatches += served::verify(&traffic, &plan, &outcomes)?;
        let stats = served::phase_stats(&plan, &outcomes, phase, traffic.limit);
        tally.add(plan.len(), stats.failed);
        let latency = Sample::new(stats.latency_ms.clone());
        client_p50[k] = latency.checked(50.0)? * 1e3;
        if traced {
            late_p99 = stats.late_us.checked(99.0)?;
        } else {
            client_p99 = latency.checked(99.0)? * 1e3;
        }
        trace.extend(spans);
    }
    // Capacity: offer far more than the server sustains and count the MUL
    // replies per second while it is saturated.
    let overload = Duration::from_secs(2);
    let rate = traffic.rate * OVERLOAD;
    let plan = served::plan_phase(&traffic, &mut rng, &mut None, rate, overload, false);
    let (outcomes, _) = served::run_phase(&server, &traffic, &plan, false)?;
    tally.add(plan.len(), served::phase_stats(&plan, &outcomes, overload, traffic.limit).failed);
    m.push("client.saturated_rate_rps", served::saturated_rate(&plan, &outcomes, overload), "1/s");
    server.stop()?;
    m.push("client.latency_p99_us", client_p99, "us");
    m.push("jitspmm_serve.info_rtt_us", info_rtt, "us");
    m.push("jitspmm_serve.residual_us", client_p50[1] - r.response_us.checked(50.0)?, "us");
    m.push("client.late_us.p99", late_p99, "us");
    m.push("client.latency_p50_us", client_p50[1], "us");
    m.push("client.untraced_latency_p50_us", client_p50[0], "us");
    m.push("trace.overhead_us", client_p50[1] - client_p50[0], "us");

    // Stage reconciliation of one MUL's median latency.
    let stages = [
        ("jitspmm_serve.info_rtt_us", info_rtt),
        ("serve.admit_us", r.admit_us.checked(50.0)?),
        ("serve.idle_wait_us", r.idle_wait_us.checked(50.0)?),
        ("runtime.dispatch_us.p50", r.dispatch_us.checked(50.0)?),
        ("kernel of served requests, p50", r.kernel_us.checked(50.0)?),
    ];
    let sum: f64 = stages.iter().map(|s| s.1).sum();
    println!("stage reconciliation, serve-open-loop MUL p50 (us):");
    for (name, value) in stages {
        println!("  {name:<34} {value:>10.1}");
    }
    println!("  {:<34} {sum:>10.1}", "sum of stages");
    println!("  {:<34} {:>10.1}", "client latency p50 (untraced)", client_p50[0]);
    println!("  {:<34} {:>10.1}", "client latency p50 (traced)", client_p50[1]);
    println!("  {:<34} {:>10.1}", "residual (traced client - sum)", client_p50[1] - sum);
    println!(
        "  {:<34} {:>10.1}",
        "tracing overhead (traced - untraced)",
        client_p50[1] - client_p50[0]
    );
    m.push("reconcile.stage_sum_us", sum, "us");
    m.push("reconcile.residual_us", client_p50[1] - sum, "us");
    Ok(())
}

/// Applies in the update probe: enough for a p99 with ten samples beyond.
const UPDATE_PROBE_APPLIES: usize = 1010;

/// What the update probe saw: `MutableSpmm::apply` on the `update-mixed`
/// engine (two shards) with the same delta stream, in
/// [`stats::WINDOWS`] windows that each start from a fresh engine (so
/// retained generations do not pile up).
struct UpdateProbe {
    /// Apply times in the order they ran.
    apply: Vec<Duration>,
    reports: Vec<UpdateReport>,
    /// Kernel-cache counters moved by the applies (not the compiles).
    cache: CacheStats,
    mismatches: usize,
}

/// Rebuilt shards are stored to (and untouched ones re-probed in) one fresh
/// kernel cache, as the `update-mixed` server does.
fn update_probe(seed: u64, work: &Path, trace: &mut Trace) -> Result<UpdateProbe, String> {
    let applies = UPDATE_PROBE_APPLIES;
    let nproc = crate::nproc();
    let spec = served::update_traffic(seed, nproc).engines[0];
    let matrix = spec.matrix();
    let pool = WorkerPool::new(nproc);
    let cache = KernelCache::open(server::fresh_dir(work, "probe-cache")?);
    let mut gen = DeltaGen::new(seed, &matrix, nproc);
    let x = spec.input(Rng::derive(seed, "probe-input").next_u64());
    let mut probe = UpdateProbe {
        apply: Vec::with_capacity(applies),
        reports: Vec::with_capacity(applies),
        cache: CacheStats::default(),
        mismatches: 0,
    };
    for w in 0..stats::WINDOWS {
        let options = ShardOptions::new().kernel_cache(cache.clone());
        let engine = MutableSpmm::compile_with(&matrix, 2, nproc, spec.d, pool.clone(), options)
            .map_err(|e| format!("mutable compile: {e}"))?;
        let before = cache.stats();
        let mut expected = matrix.clone();
        let count = applies / stats::WINDOWS + usize::from(w < applies % stats::WINDOWS);
        for _ in 0..count {
            let delta = served::delta_batch(&gen.next_ops());
            let at = Instant::now();
            let report = engine.apply(&delta).map_err(|e| format!("apply: {e}"))?;
            let end = Instant::now();
            trace.record("update.apply", at, end);
            probe.apply.push(end - at);
            probe.reports.push(report);
            expected = trace
                .time("sparse.apply_delta", || expected.apply_delta(&delta))
                .map_err(|e| format!("delta: {e}"))?;
        }
        let after = cache.stats();
        probe.cache.hits += after.hits - before.hits;
        probe.cache.misses += after.misses - before.misses;
        probe.cache.stores += after.stores - before.stores;
        probe.cache.rejects += after.rejects - before.rejects;
        let (y, _) = pool.scope(|s| engine.execute(s, &x)).map_err(|e| format!("execute: {e}"))?;
        probe.mismatches += usize::from(!y.approx_eq(&expected.spmm_reference(&x), TOLERANCE));
    }
    Ok(probe)
}

/// `update`, `sparse` (delta merge), `shard` (planning) and `cache`, on the
/// `update-mixed` engine and delta stream.
fn update_layers(
    seed: u64,
    seconds: f64,
    work: &Path,
    trace: &mut Trace,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let nproc = crate::nproc();
    let probe = update_probe(seed, work, trace)?;
    tally.add(probe.apply.len(), 0);
    tally.mismatches += probe.mismatches;
    let apply = sample_us(trace, "update.apply");
    m.push("update.apply_us.p50", apply.checked(50.0)?, "us");
    m.push("update.apply_us.p99", apply.checked(99.0)?, "us");
    let rebuilt: usize = probe.reports.iter().map(|r| r.rebuilt_shards).sum();
    let reused: usize = probe.reports.iter().map(|r| r.reused_shards).sum();
    m.push("update.rebuilt_shards", rebuilt as f64, "count");
    m.push("update.reused_shards", reused as f64, "count");
    m.push("update.replans", probe.reports.iter().filter(|r| r.replanned).count() as f64, "count");
    m.push("update.reuse_share", reused as f64 / (reused + rebuilt).max(1) as f64, "ratio");
    m.push("sparse.apply_delta_us", sample_us(trace, "sparse.apply_delta").median(), "us");
    let (hits, misses) = (probe.cache.hits, probe.cache.misses);
    m.push("cache.hits", hits as f64, "count");
    m.push("cache.misses", misses as f64, "count");
    m.push("cache.stores", probe.cache.stores as f64, "count");
    m.push("cache.rejects", probe.cache.rejects as f64, "count");
    m.push("cache.hit_share", hits as f64 / (hits + misses).max(1) as f64, "ratio");

    let traffic = served::update_traffic(seed, nproc);
    let spec = traffic.engines[0];
    let matrix = spec.matrix();
    let mut imbalance = 0.0;
    for _ in 0..50 {
        let plan = trace
            .time("shard.plan", || plan_shards(&matrix, 2, nproc))
            .map_err(|e| format!("plan: {e}"))?;
        imbalance = plan.nnz_imbalance();
    }
    m.push("shard.plan_us", sample_us(trace, "shard.plan").median(), "us");
    m.push("shard.nnz_imbalance", imbalance, "ratio");

    // A build against a populated cache: one cold build stores the kernel,
    // the timed ones load it.
    let pool = WorkerPool::new(nproc);
    let cache = KernelCache::open(server::fresh_dir(work, "warm-cache")?);
    let builder =
        || JitSpmmBuilder::new().pool(pool.clone()).threads(nproc).kernel_cache_in(cache.clone());
    drop(builder().build(&matrix, spec.d).map_err(|e| format!("build: {e}"))?);
    let hits_before = cache.stats().hits;
    for _ in 0..20 {
        drop(
            trace
                .time("cache.warm_build", || builder().build(&matrix, spec.d))
                .map_err(|e| format!("build: {e}"))?,
        );
    }
    if cache.stats().hits < hits_before + 20 {
        return Err("warm builds missed the populated cache".to_string());
    }
    m.push("cache.warm_build_us", sample_us(trace, "cache.warm_build").median(), "us");

    // The `update-mixed` stream served in process: swap waits, and the
    // outputs checked against the revisions they could have observed.
    let engine = MutableSpmm::compile_with(
        &matrix,
        2,
        nproc,
        spec.d,
        pool.clone(),
        ShardOptions::new().kernel_cache(KernelCache::open(server::fresh_dir(work, "swap-cache")?)),
    )
    .map_err(|e| format!("mutable compile: {e}"))?;
    let server: SpmmServer<'_, f32> = SpmmServer::with_pool(pool.clone());
    server.add_mutable(engine).map_err(|e| format!("server: {e}"))?;
    let mut deltas = Some(DeltaGen::new(seed, &matrix, nproc));
    let mut rng = Rng::derive(seed, "swap-traffic");
    let length = Duration::from_secs_f64(seconds / 2.0);
    let plan = served::plan_phase(&traffic, &mut rng, &mut deltas, traffic.rate, length, true);
    replay(&server, &traffic, &plan, trace, tally)?;
    m.push("update.swap_wait_us", sample_us(trace, "update.swap_wait").median(), "us");
    Ok(())
}
