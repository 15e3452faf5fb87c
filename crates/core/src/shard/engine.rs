//! The sharded engine behind one [`crate::MutableSpmm`] generation: one
//! JIT-compiled [`JitSpmm`] per shard of a [`ShardPlan`], executing as
//! overlapped lane-capped launches on a shared [`WorkerPool`], with shard
//! outputs stitched into full-height results.

use crate::cache::KernelCache;
use crate::engine::{ExecutionHandle, JitSpmm, JitSpmmBuilder, KernelTier, TierPolicy};
use crate::error::JitSpmmError;
use crate::runtime::dispatch::BufferPool;
use crate::runtime::{JobSpec, NumaTopology, PoolScope, PooledMatrix, WorkerPool};
use crate::schedule::Strategy;
use crate::shard::plan::ShardPlan;
use crate::shard::report::{merge_input_reports, single_launch_report, ShardReport};
use crate::shard::stream::ShardedStream;
use jitspmm_sparse::{DenseMatrix, Scalar};
use std::sync::Arc;
use std::time::Instant;

/// Cross-cutting options for compiling a sharded engine
/// ([`crate::MutableSpmm::compile_with`]): tiering, the persistent kernel
/// cache, and explicit NUMA placement. Every generation an update builds
/// compiles under the same options.
#[derive(Debug, Clone, Default)]
pub struct ShardOptions {
    /// Adaptive tiering policy; every shard engine promotes independently.
    pub tier: Option<TierPolicy>,
    /// Persistent kernel cache shared by every shard engine: per-shard
    /// kernels (and per-shard promotion outcomes) are keyed by each shard's
    /// own matrix fingerprint, so a restart warm-starts all K shards.
    pub kernel_cache: Option<Arc<KernelCache>>,
    /// Pin every shard engine's soft NUMA hint to this node, overriding the
    /// automatic contiguous spread across detected nodes. For servers that
    /// place sharded engines by hand.
    pub numa_node: Option<usize>,
}

impl ShardOptions {
    /// Default options: no tiering, no cache, automatic NUMA spread.
    pub fn new() -> ShardOptions {
        ShardOptions::default()
    }

    /// Enable adaptive tiering under `policy`.
    pub fn tiered(mut self, policy: TierPolicy) -> ShardOptions {
        self.tier = Some(policy);
        self
    }

    /// Persist and reload per-shard kernels through `cache`.
    pub fn kernel_cache(mut self, cache: Arc<KernelCache>) -> ShardOptions {
        self.kernel_cache = Some(cache);
        self
    }

    /// Pin every shard engine to NUMA node `node`.
    pub fn numa_node(mut self, node: usize) -> ShardOptions {
        self.numa_node = Some(node);
        self
    }
}

/// One sharded compile: K independently compiled [`JitSpmm`] engines —
/// one per row shard of a [`ShardPlan`] — sharing one [`WorkerPool`]. The
/// building block of a [`crate::MutableSpmm`] generation, whose docs
/// describe the execution model; sharded execution is reached through it:
///
/// ```
/// use jitspmm::update::MutableSpmm;
/// use jitspmm::WorkerPool;
/// use jitspmm_sparse::{generate, DenseMatrix};
///
/// # fn main() -> Result<(), jitspmm::JitSpmmError> {
/// let pool = WorkerPool::new(2);
/// let a = generate::rmat::<f32>(10, 20_000, generate::RmatConfig::GRAPH500, 1);
/// // Two nnz-balanced shards, one worker lane each.
/// let sharded = MutableSpmm::compile(&a, 2, 1, 8, pool.clone())?;
/// let x = DenseMatrix::random(a.ncols(), 8, 3);
/// let (y, report) = pool.scope(|scope| sharded.execute(scope, &x))?;
/// assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
/// assert_eq!(report.shards, 2);
/// assert!(report.nnz_imbalance >= 1.0);
/// # Ok(())
/// # }
/// ```
pub(crate) struct ShardedSpmm<'a, T: Scalar> {
    pub(super) plan: &'a ShardPlan<T>,
    /// One engine per shard, in row order.
    engines: Vec<JitSpmm<'a, T>>,
    pool: WorkerPool,
    pub(super) d: usize,
    /// Recycles full-height outputs, exactly like a single engine's pool.
    output_pool: Arc<BufferPool<T>>,
}

impl<'a, T: Scalar> ShardedSpmm<'a, T> {
    /// Compile one engine per shard of `plan` for `d` dense columns, all
    /// executing on `pool` under `options`. Each shard engine uses the
    /// plan's per-shard strategy and is lane-capped to [`ShardPlan::lanes`]
    /// workers, so the K shard launches of one execute overlap on disjoint
    /// subsets of the shared pool; a shared kernel cache keys each shard by
    /// its own matrix fingerprint, so a restart warm-starts all K shards.
    ///
    /// Shard `k` with `donors[k] == Some(engine)` is **adopted** instead:
    /// its compiled core is shared pointer-identically from the donor
    /// ([`JitSpmm::adopt`]) and the cache entry (when one is configured) is
    /// probed so live shards register as hits and keep their mtime fresh
    /// against LRU eviction. An empty `donors` compiles every shard fresh.
    /// The caller owns the adoption contract: each donor's matrix must be
    /// content-identical to the corresponding spec's, and the donor's data
    /// must outlive the new engine.
    ///
    /// `output_pool` recycles full-height outputs; the update path hands
    /// the previous generation's pool across the swap, so a live server
    /// keeps recycling its outputs through an update.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::EmptyDenseMatrix`] if `d` is zero, or a codegen
    /// error if any freshly compiled shard kernel fails.
    pub(crate) fn compile(
        plan: &'a ShardPlan<T>,
        d: usize,
        pool: WorkerPool,
        options: &ShardOptions,
        donors: &[Option<&JitSpmm<'_, T>>],
        output_pool: Arc<BufferPool<T>>,
    ) -> Result<ShardedSpmm<'a, T>, JitSpmmError> {
        debug_assert!(donors.is_empty() || donors.len() == plan.len());
        // On a multi-node host, spread shards contiguously across NUMA nodes
        // (shard k of K prefers node k*N/K): shards are row-contiguous, so
        // contiguous assignment keeps each node's workers walking one
        // locality-coherent slice of the matrix. A soft hint only — claiming
        // stays work-conserving — and absent entirely on single-node hosts.
        // An explicit `ShardOptions::numa_node` overrides the spread.
        let topology = NumaTopology::detect();
        let nodes = topology.is_multi_node().then(|| topology.num_nodes());
        let shard_count = plan.len();
        let engines: Vec<JitSpmm<'a, T>> = plan
            .shards()
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                if let Some(donor) = donors.get(k).copied().flatten() {
                    let engine = JitSpmm::adopt(donor, &spec.matrix);
                    engine.touch_cache_entry();
                    return Ok(engine);
                }
                let mut builder = JitSpmmBuilder::new()
                    .pool(pool.clone())
                    .threads(plan.lanes())
                    .strategy(spec.strategy);
                if let Some(policy) = options.tier {
                    builder = builder.tiered(policy);
                }
                if let Some(cache) = &options.kernel_cache {
                    builder = builder.kernel_cache_in(Arc::clone(cache));
                }
                if let Some(node) = options.numa_node {
                    builder = builder.numa_node(node);
                } else if let Some(n) = nodes {
                    builder = builder.numa_node(k * n / shard_count.max(1));
                }
                builder.build(&spec.matrix, d)
            })
            .collect::<Result<_, _>>()?;
        // The one-pool invariant (the disjoint-lane overlap only holds
        // within one pool) is true by construction — every builder was
        // handed a clone of `pool`, and donors come from a generation on
        // the same pool — so it is asserted, not returned as an error.
        debug_assert!(engines.iter().all(|e| e.pool().same_pool(&pool)));
        Ok(ShardedSpmm { plan, engines, pool, d, output_pool })
    }

    /// Hand the full-height output pool to a successor generation (see
    /// [`ShardedSpmm::compile`]).
    pub(crate) fn output_pool(&self) -> Arc<BufferPool<T>> {
        Arc::clone(&self.output_pool)
    }

    /// The per-shard engines, in row order.
    pub(crate) fn engines(&self) -> &[JitSpmm<'a, T>] {
        &self.engines
    }

    /// The slowest-progressing tier across the shard engines: `Tier0` while
    /// any shard still runs its starter kernel, `Promoted` once every shard
    /// has hot-swapped, `Fixed` for a non-tiered compile. Shards promote
    /// independently, so this is the honest aggregate for merged reports.
    pub(crate) fn tier(&self) -> KernelTier {
        if self.engines.iter().any(|e| e.tier() == KernelTier::Tier0) {
            KernelTier::Tier0
        } else if self.engines.iter().any(|e| e.tier() == KernelTier::Promoted) {
            KernelTier::Promoted
        } else {
            KernelTier::Fixed
        }
    }

    /// Total hot-swap promotions across the shard engines.
    pub(crate) fn promotions(&self) -> usize {
        self.engines.iter().map(JitSpmm::promotions).sum()
    }

    /// Compute `Y = A * X` by launching every shard as an overlapped,
    /// lane-capped asynchronous job: shard `k`'s kernel writes rows
    /// `rows_k` of the full matrix **directly into its row range** of one
    /// pooled full-height output (the stitch is free — a shard's rows are
    /// contiguous in the output), and the call returns once the slowest
    /// shard has joined. Steady-state repeated execution recycles the
    /// output buffer, allocating nothing.
    ///
    /// The launches are anchored to `scope` exactly like
    /// [`JitSpmm::execute_async`]; concurrent sharded executes from other
    /// threads serialize per shard by acquiring the shard launch locks in
    /// row order (ordered acquisition, so blocking cannot deadlock).
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::ShapeMismatch`] if `x` is not `A.ncols() x d`, and
    /// [`JitSpmmError::LaunchInProgress`] if the calling thread already
    /// holds a launch of one of the shard engines.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic of the run after joining the shard
    /// launches still in flight; the engines stay usable afterwards.
    pub(crate) fn execute<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        x: &'env DenseMatrix<T>,
    ) -> Result<(PooledMatrix<T>, ShardReport), JitSpmmError> {
        check_input_shape(x, self.plan.ncols(), self.d)?;
        let started = Instant::now();
        let mut y = self.acquire_output();
        let y_ptr = y.as_mut_ptr();
        let mut handles: Vec<ExecutionHandle<'scope, T>> = Vec::with_capacity(self.engines.len());
        for (spec, engine) in self.plan.shards().iter().zip(&self.engines) {
            // SAFETY (pointer arithmetic): the full output is
            // `plan.nrows() x d` and every shard's `rows` range lies inside
            // `0..plan.nrows()`, so `start * d` is in bounds.
            let shard_y = unsafe { y_ptr.add(spec.rows.start * self.d) };
            // SAFETY (launch contract): `x` is borrowed for 'env and `y` is
            // held across the joins below — every handle is waited (or
            // dropped, which joins) before this frame returns, so both
            // pointees outlive every launch; shards write pairwise disjoint
            // row ranges, so no two launches alias; shapes were validated
            // above against the full matrix, which every shard inherits its
            // column count and `d` from.
            let handle = unsafe { engine.execute_async_raw(scope, x.as_ptr(), shard_y) };
            match handle {
                Ok(handle) => handles.push(handle),
                // Dropping the handles joins the shards already in flight
                // before the error surfaces; the pooled output recycles.
                Err(e) => return Err(e),
            }
        }
        let reports: Vec<_> = handles.into_iter().map(ExecutionHandle::wait_report).collect();
        let elapsed = started.elapsed();
        let mut merged = single_launch_report(&merge_input_reports(&reports), 1);
        merged.elapsed = elapsed;
        merged.tier = self.tier();
        merged.promotions = self.promotions();
        let report = ShardReport {
            shards: self.engines.len(),
            nnz_imbalance: self.plan.nnz_imbalance(),
            merged,
            per_shard: reports
                .iter()
                .zip(&self.engines)
                .map(|(r, engine)| {
                    let mut shard = single_launch_report(r, 1);
                    shard.tier = engine.tier();
                    shard.promotions = engine.promotions();
                    shard
                })
                .collect(),
        };
        Ok((y, report))
    }

    /// Compute `Y = A * X_i` for every input in `inputs`, pipelining the
    /// batch through all shards at once: each shard runs its own
    /// [`crate::BatchStream`] (per-slot payloads, spare kernels, pooled
    /// shard outputs), the streams advance in lockstep, and each completed
    /// input's shard outputs are stitched — one contiguous row-range copy
    /// per shard — into a full-height pooled output. Outputs return in
    /// input order with a [`ShardReport`] aggregating per-shard and merged
    /// critical-path timing.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::ShapeMismatch`] (naming the offending input index)
    /// if any input is not `A.ncols() x d` — nothing is launched in that
    /// case — and [`JitSpmmError::LaunchInProgress`] if the calling thread
    /// already holds a launch of one of the shard engines.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic of the batch after joining the
    /// launches still in flight; the engines stay usable afterwards.
    pub(crate) fn execute_batch<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        inputs: &'env [DenseMatrix<T>],
    ) -> Result<(Vec<PooledMatrix<T>>, ShardReport), JitSpmmError> {
        for (index, x) in inputs.iter().enumerate() {
            check_input_shape(x, self.plan.ncols(), self.d).map_err(|e| match e {
                JitSpmmError::ShapeMismatch(msg) => {
                    JitSpmmError::ShapeMismatch(format!("batch input {index}: {msg}"))
                }
                other => other,
            })?;
        }
        // Auto depth, as `JitSpmm::execute_batch`: pipeline where overlap is
        // available, degrade to the sequential fast path where it is not.
        let depth = if inputs.len() <= 1 { 1 } else { 0 };
        let mut stream = self.batch_stream(scope, depth)?;
        // The caller holds every full-height output at once; shard-local
        // outputs recycle within the pipeline and need no reserve.
        self.output_pool.reserve(inputs.len());
        let mut outputs = Vec::with_capacity(inputs.len());
        for x in inputs {
            if let Some((y, _)) = stream.push_validated(x) {
                outputs.push(y);
            }
        }
        let (rest, report) = stream.finish();
        outputs.extend(rest.into_iter().map(|(y, _)| y));
        Ok((outputs, report))
    }

    /// Open a [`ShardedStream`]: the incremental form of
    /// [`ShardedSpmm::execute_batch`] for unbounded input streams. `depth`
    /// is the per-shard pipeline depth with the same auto semantics as
    /// [`JitSpmm::batch_stream`] (`0` = default depth, sequential fast path
    /// on hosts with nothing to overlap); every shard stream shares it, so
    /// the pipelines advance in lockstep. The stream holds every shard
    /// engine's launch lock until it is finished or dropped.
    ///
    /// # Errors
    ///
    /// [`JitSpmmError::LaunchInProgress`] if the calling thread already
    /// holds a launch of one of the shard engines, or a codegen error from
    /// compiling spare slot kernels.
    pub(crate) fn batch_stream<'scope, 'env>(
        &'env self,
        scope: &'scope PoolScope<'scope, 'env>,
        depth: usize,
    ) -> Result<ShardedStream<'scope, 'env, T>, JitSpmmError> {
        let mut streams = Vec::with_capacity(self.engines.len());
        for engine in &self.engines {
            // A failure midway drops the streams opened so far, releasing
            // their shard engines.
            streams.push(engine.batch_stream(scope, depth)?);
        }
        // Every shard keeps up to depth outputs in flight plus one being
        // stitched; let its pool retain that many so steady-state batches
        // recycle every shard buffer.
        let effective = streams.first().map(|s| s.depth()).unwrap_or(1);
        for engine in &self.engines {
            engine.reserve_outputs(effective + 1);
        }
        Ok(ShardedStream::new(self, streams))
    }

    /// A full-height (`plan.nrows() x d`) output borrowed from the sharded
    /// engine's own buffer pool. Freshly allocated buffers get first-touch
    /// NUMA placement (see [`ShardedSpmm::place_output_rows`]); recycled
    /// buffers keep the placement their first touch established.
    pub(crate) fn acquire_output(&self) -> PooledMatrix<T> {
        let (matrix, fresh) = self.output_pool.acquire_tracked(self.plan.nrows(), self.d);
        let mut y = PooledMatrix::new(matrix, Arc::clone(&self.output_pool));
        if fresh {
            self.place_output_rows(&mut y);
        }
        y
    }

    /// First-touch placement of a freshly allocated full-height output: each
    /// shard's row range is zero-written by a pool job preferring that
    /// shard's node, so the backing pages fault in on the memory node whose
    /// workers will write (and whose CSR slice feeds) those rows. Runs only
    /// when the shard engines carry node hints — i.e. on multi-node hosts —
    /// and only once per buffer. Best-effort by design: claiming stays
    /// work-conserving, so under load a range may be touched from another
    /// node; that costs remote-access latency on those pages, never
    /// correctness.
    fn place_output_rows(&self, y: &mut PooledMatrix<T>) {
        if self.engines.iter().all(|e| e.numa_node().is_none()) {
            return;
        }
        let base = y.as_mut_ptr() as usize;
        let d = self.d;
        let handles: Vec<_> = self
            .plan
            .shards()
            .iter()
            .zip(&self.engines)
            .map(|(spec, engine)| {
                let rows = spec.rows;
                let touch = move |_lane: usize| {
                    // SAFETY: `base` points at the start of the full
                    // `nrows x d` output, which the caller holds (mutably
                    // borrowed) across the joins below; shard row ranges lie
                    // inside `0..nrows` and are pairwise disjoint, so no two
                    // touch jobs alias.
                    let slice = unsafe {
                        std::slice::from_raw_parts_mut(
                            (base as *mut T).add(rows.start * d),
                            rows.len() * d,
                        )
                    };
                    slice.fill(T::ZERO);
                };
                self.pool.submit(JobSpec::new(1).prefer_node(engine.numa_node()), touch)
            })
            .collect();
        for handle in handles {
            handle.wait();
        }
    }

    /// Grow the retained full-height output bound, as
    /// [`JitSpmm`]'s internal reserve does — the serving router calls this
    /// so repeated serving rounds recycle all their outputs.
    pub(crate) fn reserve_outputs(&self, outstanding: usize) {
        self.output_pool.reserve(outstanding);
    }

    /// The strategy of the heaviest shard (by non-zeros) — the plan-level
    /// stand-in recorded in merged batch reports, where a single strategy
    /// cannot describe K heterogeneous shards.
    pub(crate) fn dominant_strategy(&self) -> Strategy {
        self.plan
            .shards()
            .iter()
            .max_by_key(|s| s.nnz())
            .map(|s| s.strategy)
            .unwrap_or(Strategy::RowSplitStatic)
    }
}

/// The shape check every sharded execute path shares: `x` must be
/// `ncols x d` of the **full** matrix (every shard shares both). [`crate::MutableSpmm`] answers it from its fixed dimensions
/// without touching the generation lock; a generation re-checks it before
/// its raw shard launches.
pub(crate) fn check_input_shape<T: Scalar>(
    x: &DenseMatrix<T>,
    ncols: usize,
    d: usize,
) -> Result<(), JitSpmmError> {
    if x.nrows() != ncols || x.ncols() != d {
        return Err(JitSpmmError::ShapeMismatch(format!(
            "dense input is {}x{} but the sharded kernel expects {ncols}x{d}",
            x.nrows(),
            x.ncols(),
        )));
    }
    Ok(())
}
