//! The two served workloads: seeded open-loop MUL traffic to the unmodified
//! `jitspmm-serve` over loopback (`serve-open-loop`), and the same kind of
//! stream against one mutable, sharded, cache-backed engine with UPDATE
//! frames mixed in (`update-mixed`).

use crate::arrivals::{self, Rng};
use crate::loadgen::{self, Op, Outcome, Planned};
use crate::report::{Metrics, Tally};
use crate::server::{self, Server};
use crate::stats::{self, Sample};
use crate::trace::{ms, us, Span};
use crate::wire::{self, EdgeOp};
use jitspmm::plan_shards;
use jitspmm_sparse::{generate, CsrMatrix, DeltaBatch, DenseMatrix};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Relative tolerance of the output check (the kernels fuse multiply-adds
/// the reference performs separately).
pub const TOLERANCE: f64 = 1e-4;
/// Server spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// A `uniform:rows,cols,nnz,seed,d` engine, as `jitspmm-serve` builds it.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    pub rows: usize,
    pub cols: usize,
    pub nnz: usize,
    pub seed: u64,
    pub d: usize,
}

impl Uniform {
    pub fn arg(&self) -> String {
        format!("uniform:{},{},{},{},{}", self.rows, self.cols, self.nnz, self.seed, self.d)
    }

    pub fn matrix(&self) -> CsrMatrix<f32> {
        generate::uniform::<f32>(self.rows, self.cols, self.nnz, self.seed)
    }

    /// The dense input the server derives from a MUL seed.
    pub fn input(&self, seed: u64) -> DenseMatrix<f32> {
        DenseMatrix::random(self.cols, self.d, seed)
    }
}

/// Traffic shape of one served workload.
#[derive(Debug, Clone)]
pub struct Traffic {
    pub engines: Vec<Uniform>,
    /// Probability that a MUL goes to engine 1 (when there are two).
    pub second_engine_share: f64,
    /// Probability that a request is an UPDATE (mutable engine only).
    pub update_share: f64,
    /// Nominal arrival rate, requests per second.
    pub rate: f64,
    /// Latency limit a MUL must meet to count towards goodput.
    pub limit: Duration,
    /// Share of MUL replies kept for the output check.
    pub sample_share: f64,
    pub connections: usize,
}

/// The `serve-open-loop` traffic: a dispatch-bound engine whose kernel is
/// shorter than a dispatch, and a kernel-bound one.
pub fn open_loop_traffic(seed: u64, nproc: usize) -> Traffic {
    let mut rng = Rng::derive(seed, "open-loop-engines");
    Traffic {
        engines: vec![
            Uniform { rows: 1024, cols: 1024, nnz: 8192, seed: rng.below(1 << 20), d: 8 },
            Uniform { rows: 4096, cols: 4096, nnz: 100_000, seed: rng.below(1 << 20), d: 16 },
        ],
        second_engine_share: 0.05,
        update_share: 0.0,
        rate: 100.0,
        limit: Duration::from_millis(25),
        sample_share: 0.05,
        connections: nproc.clamp(1, 2),
    }
}

/// The `update-mixed` traffic: one mutable engine, UPDATE frames beside MULs.
pub fn update_traffic(seed: u64, nproc: usize) -> Traffic {
    let mut rng = Rng::derive(seed, "update-engines");
    Traffic {
        engines: vec![Uniform {
            rows: 2048,
            cols: 2048,
            nnz: 16_384,
            seed: rng.below(1 << 20),
            d: 8,
        }],
        second_engine_share: 0.0,
        update_share: 0.15,
        rate: 160.0,
        limit: Duration::from_millis(25),
        sample_share: 0.05,
        connections: nproc.clamp(1, 2),
    }
}

/// `jitspmm-serve serve` flags for a traffic shape.
pub fn server_args(traffic: &Traffic, nproc: usize, cache: Option<&Path>) -> Vec<String> {
    let mut args = vec!["--threads".to_string(), nproc.to_string()];
    for e in &traffic.engines {
        args.push("--matrix".into());
        args.push(e.arg());
    }
    if traffic.update_share > 0.0 {
        args.extend(["--mutable".to_string(), "--shards".to_string(), "2".to_string()]);
    }
    if let Some(dir) = cache {
        args.push("--cache".into());
        args.push(dir.display().to_string());
    }
    args
}

/// Seeded small deltas, each inside one shard's row range of the mutable
/// engine, as `MutableSpmm` and the UPDATE frame both take them.
pub struct DeltaGen {
    rng: Rng,
    shards: Vec<(usize, usize)>,
    base: CsrMatrix<f32>,
    cols: usize,
}

impl DeltaGen {
    pub fn new(seed: u64, base: &CsrMatrix<f32>, lanes: usize) -> DeltaGen {
        let plan = plan_shards(base, 2, lanes).expect("shard plan of a non-empty matrix");
        let shards = plan.shards().iter().map(|s| (s.rows.start, s.rows.end)).collect();
        DeltaGen {
            rng: Rng::derive(seed, "deltas"),
            shards,
            base: base.clone(),
            cols: base.ncols(),
        }
    }

    /// Three upserts and one delete of an original entry, in one shard.
    pub fn next_ops(&mut self) -> Vec<EdgeOp> {
        let (lo, hi) = self.shards[self.rng.below(self.shards.len() as u64) as usize];
        let mut ops = Vec::with_capacity(4);
        for _ in 0..3 {
            let r = lo as u32 + self.rng.below((hi - lo) as u64) as u32;
            let col = self.rng.below(self.cols as u64) as u32;
            let value = (self.rng.next_f64() * 2.0 - 1.0) as f32;
            ops.push(EdgeOp::Upsert { row: r, col, value });
        }
        let r = lo + self.rng.below((hi - lo) as u64) as usize;
        let cols = self.base.row_cols(r);
        if !cols.is_empty() {
            let col = cols[self.rng.below(cols.len() as u64) as usize];
            ops.push(EdgeOp::Delete { row: r as u32, col });
        }
        ops
    }
}

pub fn delta_batch(ops: &[EdgeOp]) -> DeltaBatch<f32> {
    let mut delta = DeltaBatch::with_capacity(ops.len());
    for op in ops {
        match *op {
            EdgeOp::Upsert { row, col, value } => delta.upsert(row as usize, col as usize, value),
            EdgeOp::Delete { row, col } => delta.delete(row as usize, col as usize),
        };
    }
    delta
}

/// Requests of one phase at `rate` for `length`, drawn from `rng`.
pub fn plan_phase(
    traffic: &Traffic,
    rng: &mut Rng,
    deltas: &mut Option<DeltaGen>,
    rate: f64,
    length: Duration,
    sample: bool,
) -> Vec<Planned> {
    let due = arrivals::poisson(rng, rate, length);
    due.into_iter()
        .map(|due| {
            if let Some(gen) = deltas.as_mut().filter(|_| rng.chance(traffic.update_share)) {
                // Updates ride connection 0 only, so they apply in send order.
                return Planned {
                    due,
                    conn: 0,
                    op: Op::Update { engine: 0, ops: gen.next_ops() },
                    keep: false,
                };
            }
            let engine =
                u32::from(traffic.engines.len() > 1 && rng.chance(traffic.second_engine_share));
            // With two connections, MULs keep off the update connection, and
            // each engine gets its own so neither waits behind the other's
            // requests on a connection (the server answers one request per
            // connection at a time).
            let conn = if traffic.connections < 2 {
                0
            } else if deltas.is_some() {
                1
            } else {
                engine as usize
            };
            let keep = sample && rng.chance(traffic.sample_share);
            Planned { due, conn, op: Op::Mul { engine, seed: rng.next_u64() }, keep }
        })
        .collect()
}

/// Latency figures of one phase's MULs.
pub struct PhaseStats {
    pub failed: usize,
    /// MUL latency from due time, in due order; failed MULs count at the
    /// phase length.
    pub latency_ms: Vec<f64>,
    pub goodput_rps: f64,
    pub late_us: Sample,
    /// UPDATE round trips, in send order.
    pub updates_ms: Vec<f64>,
}

pub fn phase_stats(
    plan: &[Planned],
    outcomes: &[Outcome],
    length: Duration,
    limit: Duration,
) -> PhaseStats {
    let mut latency = Vec::new();
    let mut updates = Vec::new();
    let mut late = Vec::new();
    let mut failed = 0;
    let mut good = 0;
    for (p, o) in plan.iter().zip(outcomes) {
        late.push(us(o.late));
        match p.op {
            Op::Update { .. } => {
                failed += usize::from(o.reply.is_err());
                updates.push(ms(o.recv_at.saturating_duration_since(o.sent_at)));
            }
            Op::Mul { .. } if o.reply.is_ok() => {
                latency.push(ms(o.latency));
                good += usize::from(o.latency <= limit);
            }
            Op::Mul { .. } => {
                failed += 1;
                latency.push(ms(length));
            }
        }
    }
    PhaseStats {
        failed,
        goodput_rps: good as f64 / length.as_secs_f64(),
        latency_ms: latency,
        late_us: Sample::new(late),
        updates_ms: updates,
    }
}

/// MUL replies per second while the capacity phase keeps the server
/// saturated: counted from a quarter into the phase (past the ramp) to its
/// end (before the backlog drains).
pub fn saturated_rate(plan: &[Planned], outcomes: &[Outcome], length: Duration) -> f64 {
    let Some(start) = outcomes.iter().map(|o| o.sent_at).min() else { return 0.0 };
    let (from, to) = (start + length / 4, start + length);
    let done = plan
        .iter()
        .zip(outcomes)
        .filter(|(p, o)| {
            matches!(p.op, Op::Mul { .. }) && o.reply.is_ok() && o.recv_at >= from && o.recv_at < to
        })
        .count();
    done as f64 / (to - from).as_secs_f64()
}

/// A kept MUL output, with its plan index and when it was sent and answered.
pub struct KeptOutput {
    pub index: usize,
    pub sent_at: Instant,
    pub recv_at: Instant,
    pub output: DenseMatrix<f32>,
}

/// When one UPDATE was sent and acknowledged, with its plan index.
pub struct Ack {
    pub index: usize,
    pub sent_at: Instant,
    pub acked_at: Instant,
}

/// Check kept MUL outputs against references computed here from the engine
/// spec, the request seed and — for the mutable engine — every revision the
/// request could have observed. The engine starts at revision 0 and updates
/// land in plan order: those acknowledged before a request was sent have
/// landed, those sent before it was answered may have. With `ordered`, a MUL
/// on connection 0 shares the updates' connection and sees exactly the
/// updates planned before it. Returns the mismatches.
pub fn check_outputs(
    traffic: &Traffic,
    plan: &[Planned],
    acks: &[Ack],
    kept: &[KeptOutput],
    ordered: bool,
) -> Result<usize, String> {
    let windows: Vec<(usize, usize)> = kept
        .iter()
        .map(|k| {
            if ordered && plan[k.index].conn == 0 {
                let before = acks.iter().filter(|u| u.index < k.index).count();
                (before, before)
            } else {
                let lo = acks.iter().filter(|u| u.acked_at < k.sent_at).count();
                let hi = acks.iter().filter(|u| u.sent_at < k.recv_at).count();
                (lo, hi)
            }
        })
        .collect();
    let mut matched = vec![false; kept.len()];
    let mut matrices: Vec<CsrMatrix<f32>> = traffic.engines.iter().map(Uniform::matrix).collect();
    for rev in 0..=acks.len() {
        if rev > 0 {
            let Op::Update { ops, .. } = &plan[acks[rev - 1].index].op else {
                return Err("an acknowledgement for a request that is not an UPDATE".to_string());
            };
            matrices[0] =
                matrices[0].apply_delta(&delta_batch(ops)).map_err(|e| format!("delta: {e}"))?;
        }
        for (c, k) in kept.iter().enumerate() {
            let (lo, hi) = windows[c];
            if matched[c] || rev < lo || rev > hi {
                continue;
            }
            let Op::Mul { engine, seed } = plan[k.index].op else {
                return Err("a kept output for a request that is not a MUL".to_string());
            };
            let spec = &traffic.engines[engine as usize];
            let want = matrices[engine as usize].spmm_reference(&spec.input(seed));
            matched[c] = k.output.approx_eq(&want, TOLERANCE);
        }
    }
    let mismatches = matched.iter().filter(|m| !**m).count();
    if mismatches > 0 {
        eprintln!("{mismatches} of {} checked outputs did not match their reference", kept.len());
    }
    Ok(mismatches)
}

/// Check the kept MUL replies of a TCP phase (see [`check_outputs`]), and
/// that every UPDATE reply names the next revision. Returns the mismatches.
pub fn verify(traffic: &Traffic, plan: &[Planned], outcomes: &[Outcome]) -> Result<usize, String> {
    let mut acks = Vec::new();
    let mut kept = Vec::new();
    let mut mismatches = 0;
    for (index, (p, o)) in plan.iter().zip(outcomes).enumerate() {
        match (&p.op, &o.reply) {
            (Op::Update { .. }, reply) => {
                acks.push(Ack { index, sent_at: o.sent_at, acked_at: o.recv_at });
                if let Ok(body) = reply {
                    if wire::revision(body)? != acks.len() as u64 {
                        eprintln!("UPDATE {index} acknowledged an out-of-order revision");
                        mismatches += 1;
                    }
                }
            }
            (Op::Mul { .. }, Ok(body)) if p.keep => {
                let (nrows, d, values) = wire::mul_output(body)?;
                let output = DenseMatrix::from_vec(nrows, d, values);
                kept.push(KeptOutput { index, sent_at: o.sent_at, recv_at: o.recv_at, output });
            }
            (Op::Mul { .. }, _) => {}
        }
    }
    Ok(mismatches + check_outputs(traffic, plan, &acks, &kept, true)?)
}

/// Spawn the server `SETUP_REPS` times, timing spawn→first INFO; the last
/// one stays up for the run.
pub fn start_measured(
    bin: &Path,
    traffic: &Traffic,
    nproc: usize,
    work: &Path,
) -> Result<(Server, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let cache = if traffic.update_share > 0.0 {
            Some(server::fresh_dir(work, &format!("cache-{rep}"))?)
        } else {
            None
        };
        let server = Server::start(bin, &server_args(traffic, nproc, cache.as_deref()))?;
        setups.push(server.setup.as_secs_f64());
        if rep + 1 < SETUP_REPS {
            server.stop()?;
        } else {
            last = Some(server);
        }
    }
    Ok((last.expect("at least one start"), setups))
}

/// One phase over fresh connections.
pub fn run_phase(
    server: &Server,
    traffic: &Traffic,
    plan: &[Planned],
    traced: bool,
) -> Result<(Vec<Outcome>, Vec<Span>), String> {
    let streams: Vec<TcpStream> =
        (0..traffic.connections).map(|_| server.connect()).collect::<Result<_, _>>()?;
    loadgen::run(&streams, plan, traced)
}

/// What a served workload measured end to end.
pub struct ServedRun {
    pub nominal: PhaseStats,
    pub setup_s: f64,
    pub tally: Tally,
    pub info_text: String,
}

/// Run a served workload untraced: setup, then `seconds` of traffic at the
/// nominal rate, then the output check.
pub fn run_workload(
    bin: &Path,
    traffic: &Traffic,
    seed: u64,
    seconds: f64,
    nproc: usize,
    work: &Path,
) -> Result<ServedRun, String> {
    let (server, setups) = start_measured(bin, traffic, nproc, work)?;
    let mut rng = Rng::derive(seed, "served-traffic");
    let mut deltas = (traffic.update_share > 0.0)
        .then(|| DeltaGen::new(seed, &traffic.engines[0].matrix(), nproc));
    let length = Duration::from_secs_f64(seconds);
    let plan = plan_phase(traffic, &mut rng, &mut deltas, traffic.rate, length, true);
    let (outcomes, _) = run_phase(&server, traffic, &plan, false)?;
    let nominal = phase_stats(&plan, &outcomes, length, traffic.limit);
    let mut tally = Tally::default();
    tally.add(plan.len(), nominal.failed);
    tally.mismatches += verify(traffic, &plan, &outcomes)?;
    let info_text = server::info(&mut server.connect()?)?;
    server.stop()?;
    Ok(ServedRun { nominal, setup_s: stats::median_of(&setups), tally, info_text })
}

/// End-to-end latency metrics of a served run (`setup_s` is the caller's).
pub fn push_metrics(run: &ServedRun, metrics: &mut Metrics) -> Result<(), String> {
    metrics.push("latency_p50_ms", stats::best_window(&run.nominal.latency_ms, 50.0)?, "ms");
    metrics.push("goodput_rps", run.nominal.goodput_rps, "1/s");
    if !run.nominal.updates_ms.is_empty() {
        metrics.push("update_p50_ms", stats::best_window(&run.nominal.updates_ms, 50.0)?, "ms");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(traffic: &Traffic, seed: u64) -> Vec<Planned> {
        let mut rng = Rng::derive(seed, "served-traffic");
        let base = traffic.engines[0].matrix();
        let mut deltas = (traffic.update_share > 0.0).then(|| DeltaGen::new(seed, &base, 2));
        plan_phase(traffic, &mut rng, &mut deltas, traffic.rate, Duration::from_secs(4), true)
    }

    #[test]
    fn plans_are_seeded_and_stay_on_the_allowed_connections() {
        for traffic in [open_loop_traffic(9, 2), update_traffic(9, 2), open_loop_traffic(9, 1)] {
            let a = plan(&traffic, 9);
            let b = plan(&traffic, 9);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert!(a.iter().all(|p| p.conn < traffic.connections));
            assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
            let updates = a.iter().filter(|p| matches!(p.op, Op::Update { .. })).count();
            let share = updates as f64 / a.len() as f64;
            assert!((share - traffic.update_share).abs() < 0.05, "update share {share}");
            // Updates ride connection 0 only.
            assert!(a.iter().all(|p| p.conn == 0 || matches!(p.op, Op::Mul { .. })));
        }
        assert_ne!(
            format!("{:?}", plan(&open_loop_traffic(9, 2), 9)),
            format!("{:?}", plan(&open_loop_traffic(9, 2), 10))
        );
    }

    #[test]
    fn outputs_are_checked_against_the_revisions_they_could_observe() {
        let traffic = update_traffic(5, 2);
        let spec = traffic.engines[0];
        let base = spec.matrix();
        let ops = DeltaGen::new(5, &base, 2).next_ops();
        let plan = vec![
            Planned {
                due: Duration::ZERO,
                conn: 0,
                op: Op::Update { engine: 0, ops: ops.clone() },
                keep: false,
            },
            Planned {
                due: Duration::ZERO,
                conn: 1,
                op: Op::Mul { engine: 0, seed: 9 },
                keep: true,
            },
        ];
        let x = spec.input(9);
        let (before, after) = (base.spmm_reference(&x), {
            base.apply_delta(&delta_batch(&ops)).unwrap().spmm_reference(&x)
        });
        let t0 = Instant::now();
        let t = |ms: u64| t0 + Duration::from_millis(ms);
        let check = |ack: (u64, u64), mul: (u64, u64), output: &DenseMatrix<f32>| {
            let acks = [Ack { index: 0, sent_at: t(ack.0), acked_at: t(ack.1) }];
            let kept = [KeptOutput {
                index: 1,
                sent_at: t(mul.0),
                recv_at: t(mul.1),
                output: output.clone(),
            }];
            check_outputs(&traffic, &plan, &acks, &kept, false).unwrap()
        };
        // Sent after the update was acknowledged: only the new revision.
        assert_eq!(check((0, 1), (2, 3), &after), 0);
        assert_eq!(check((0, 1), (2, 3), &before), 1);
        // Answered before the update was sent: only the old revision.
        assert_eq!(check((5, 6), (2, 3), &before), 0);
        assert_eq!(check((5, 6), (2, 3), &after), 1);
        // Overlapping the update: either revision.
        assert_eq!(check((2, 5), (1, 3), &before), 0);
        assert_eq!(check((2, 5), (1, 3), &after), 0);
    }

    #[test]
    fn deltas_stay_inside_one_shard() {
        let traffic = update_traffic(4, 2);
        let base = traffic.engines[0].matrix();
        let mut gen = DeltaGen::new(4, &base, 2);
        for _ in 0..200 {
            let ops = gen.next_ops();
            let rows: Vec<usize> = ops
                .iter()
                .map(|op| match *op {
                    EdgeOp::Upsert { row, .. } | EdgeOp::Delete { row, .. } => row as usize,
                })
                .collect();
            let shard = |r: usize| gen.shards.iter().position(|&(lo, hi)| lo <= r && r < hi);
            assert!(rows.iter().all(|&r| shard(r).is_some() && shard(r) == shard(rows[0])));
            assert!(base.apply_delta(&delta_batch(&ops)).is_ok());
        }
    }
}
