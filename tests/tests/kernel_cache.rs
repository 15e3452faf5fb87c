//! Integration tests for the persistent kernel cache: warm starts must be
//! **bit-identical** to cold compiles across every engine shape, and a
//! corrupt or mismatched cache must degrade to a silent recompile — never a
//! crash, never a wrong result.
//!
//! The contracts under test, end to end:
//!
//! - A second engine built against a populated cache directory loads its
//!   kernel from disk (observable in [`jitspmm::CacheStats`]) and produces
//!   outputs bit-for-bit equal to a cache-less compile — for static and
//!   dynamic row-split, for tiered warm starts (which skip tier-0
//!   entirely), and for every shard of a sharded engine.
//! - Truncating an entry, flipping a code byte, or flipping a byte of the
//!   header's key echo (the on-disk stand-in for "compiled on a different
//!   CPU") makes the load a *reject*: the engine recompiles fresh, results
//!   stay correct, and the stats record what happened.
//! - Distinct matrices never alias: mutating one value of the sparse matrix
//!   re-keys the cache, and even sharing one directory across many random
//!   matrices always yields each matrix's own correct product.
//! - A cache populated by one *process* serves a bit-identical result in a
//!   fresh process (the test re-spawns itself; the CI workflow repeats the
//!   same round trip through the `jitspmm-serve` TCP front end).

use jitspmm::{
    CacheStats, JitSpmm, JitSpmmBuilder, KernelCache, KernelTier, MutableSpmm, ShardOptions,
    Strategy, TierPolicy, WorkerPool,
};
use jitspmm_integration_tests::{host_supports_jit, pathological, small_uniform};
use jitspmm_sparse::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const D: usize = 6;

/// Self-cleaning unique temp directory for a cache.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "jitspmm-itest-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bits(y: &DenseMatrix<f32>) -> Vec<u32> {
    y.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn builder(pool: &WorkerPool, strategy: Strategy) -> JitSpmmBuilder {
    JitSpmmBuilder::new().pool(pool.clone()).threads(2).strategy(strategy)
}

/// Compile `a` twice against `dir` — populate, then reload — and assert the
/// reloaded engine (a) actually hit the cache and (b) multiplies
/// bit-identically to a cache-less engine.
fn assert_warm_start_identical(a: &CsrMatrix<f32>, strategy: Strategy) {
    let dir = TempDir::new("warm");
    let pool = WorkerPool::new(2);
    let x = DenseMatrix::random(a.ncols(), D, 7);

    let (y_fresh, _) = builder(&pool, strategy).build(a, D).unwrap().execute(&x).unwrap();

    let cache = KernelCache::open(dir.path());
    let cold = builder(&pool, strategy).kernel_cache_in(Arc::clone(&cache)).build(a, D).unwrap();
    let (y_cold, _) = cold.execute(&x).unwrap();
    drop(cold);
    let after_cold: CacheStats = cache.stats();
    assert!(after_cold.stores >= 1, "cold compile should populate: {after_cold:?}");

    let warm = builder(&pool, strategy).kernel_cache_in(Arc::clone(&cache)).build(a, D).unwrap();
    let (y_warm, _) = warm.execute(&x).unwrap();
    let after_warm = cache.stats();
    assert!(
        after_warm.hits > after_cold.hits,
        "warm compile should hit the cache: {after_cold:?} -> {after_warm:?}"
    );
    assert_eq!(after_warm.stores, after_cold.stores, "a hit must not re-store");

    assert_eq!(bits(&y_fresh), bits(&y_cold), "cache-less vs populating compile");
    assert_eq!(bits(&y_fresh), bits(&y_warm), "cache-less vs warm-started compile");
}

#[test]
fn warm_start_is_bit_identical_static() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    assert_warm_start_identical(&small_uniform(), Strategy::RowSplitStatic);
}

#[test]
fn warm_start_is_bit_identical_dynamic() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    assert_warm_start_identical(&small_uniform(), Strategy::RowSplitDynamic { batch: 32 });
    assert_warm_start_identical(&pathological(), Strategy::row_split_dynamic_default());
}

#[test]
fn tiered_warm_start_skips_tier0_and_matches_promoted_engine() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let dir = TempDir::new("tier");
    let pool = WorkerPool::new(2);
    let x = DenseMatrix::random(a.ncols(), D, 8);
    let cache = KernelCache::open(dir.path());

    let tiered = |cache: &Arc<KernelCache>| -> JitSpmm<'_, f32> {
        JitSpmmBuilder::new()
            .pool(pool.clone())
            .threads(2)
            .tiered(TierPolicy::new().warmup(1))
            .kernel_cache_in(Arc::clone(cache))
            .build(&a, D)
            .unwrap()
    };

    // First process-equivalent: tier-0 start, explicit promotion (stores the
    // promotion record + promoted kernel).
    let first = tiered(&cache);
    assert_eq!(first.tier(), KernelTier::Tier0, "no record yet: must start on tier-0");
    assert!(first.promote_now(), "promotion must complete inline");
    assert_eq!(first.tier(), KernelTier::Promoted);
    let (y_promoted, _) = first.execute(&x).unwrap();
    drop(first);

    // Second process-equivalent: the recorded outcome short-circuits warmup.
    let warm = tiered(&cache);
    assert_eq!(warm.tier(), KernelTier::Promoted, "warm start must skip tier-0");
    assert_eq!(warm.promotions(), 0, "warm start is not an in-process hot swap");
    let (y_warm, _) = warm.execute(&x).unwrap();
    assert_eq!(bits(&y_promoted), bits(&y_warm), "warm-started vs promoted engine");
}

#[test]
fn sharded_engines_warm_start_every_shard() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let dir = TempDir::new("shard");
    let pool = WorkerPool::new(2);
    let x = DenseMatrix::random(a.ncols(), D, 9);
    let cache = KernelCache::open(dir.path());

    let cold = MutableSpmm::compile_with(
        &a,
        2,
        1,
        D,
        pool.clone(),
        ShardOptions::new().kernel_cache(Arc::clone(&cache)),
    )
    .unwrap();
    let (y_cold, _) = pool.scope(|scope| cold.execute(scope, &x)).unwrap();
    drop(cold);
    let after_cold = cache.stats();
    assert!(after_cold.stores >= 2, "one store per shard: {after_cold:?}");

    let warm = MutableSpmm::compile_with(
        &a,
        2,
        1,
        D,
        pool.clone(),
        ShardOptions::new().kernel_cache(Arc::clone(&cache)),
    )
    .unwrap();
    let (y_warm, _) = pool.scope(|scope| warm.execute(scope, &x)).unwrap();
    assert!(
        cache.stats().hits >= after_cold.hits + 2,
        "every shard should reload: {:?}",
        cache.stats()
    );
    assert_eq!(bits(&y_cold), bits(&y_warm), "sharded warm start must be bit-identical");
    assert!(y_warm.approx_eq(&a.spmm_reference(&x), 1e-4));
}

/// The stored kernel entries (`k-*.jsk`) of a cache directory.
fn kernel_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy().into_owned();
            name.starts_with("k-") && name.ends_with(".jsk")
        })
        .collect();
    entries.sort();
    entries
}

/// Corrupt every stored entry with `damage`, then rebuild: the load must be
/// rejected (or missed) silently and the recompiled engine must still be
/// bit-identical to the pristine warm start.
fn assert_corruption_recompiles(damage: impl Fn(&Path)) {
    let a = small_uniform();
    let dir = TempDir::new("corrupt");
    let pool = WorkerPool::new(2);
    let x = DenseMatrix::random(a.ncols(), D, 10);
    let strategy = Strategy::row_split_dynamic_default();
    let cache = KernelCache::open(dir.path());

    let (y_good, _) = builder(&pool, strategy)
        .kernel_cache_in(Arc::clone(&cache))
        .build(&a, D)
        .unwrap()
        .execute(&x)
        .unwrap();
    let entries = kernel_entries(dir.path());
    assert!(!entries.is_empty(), "cold compile must store entries");
    for entry in &entries {
        damage(entry);
    }

    let before = cache.stats();
    let engine = builder(&pool, strategy).kernel_cache_in(Arc::clone(&cache)).build(&a, D).unwrap();
    let after = cache.stats();
    assert_eq!(after.hits, before.hits, "damaged entries must not hit: {after:?}");
    assert!(
        after.rejects > before.rejects || after.misses > before.misses,
        "damage must surface as reject or miss: {before:?} -> {after:?}"
    );
    let (y_recompiled, _) = engine.execute(&x).unwrap();
    assert_eq!(bits(&y_good), bits(&y_recompiled), "recompile after corruption");
    assert!(y_recompiled.approx_eq(&a.spmm_reference(&x), 1e-4));
}

#[test]
fn truncated_entries_recompile_silently() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    assert_corruption_recompiles(|path| {
        let len = std::fs::metadata(path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(len / 2).unwrap();
    });
}

#[test]
fn flipped_code_bytes_recompile_silently() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    // 4096 is the code offset: flip the first generated instruction byte.
    assert_corruption_recompiles(|path| flip_byte(path, 4096));
}

#[test]
fn foreign_cpu_key_recompiles_silently() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    // The header echoes the full cache key; its final byte is the CPU
    // feature mask. Flipping it is exactly what loading an entry produced
    // on a different machine looks like: a bytewise key mismatch.
    assert_corruption_recompiles(|path| flip_byte(path, 8 + 71));
}

fn flip_byte(path: &Path, offset: u64) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut file = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
    file.seek(SeekFrom::Start(offset)).unwrap();
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0xA5;
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.write_all(&byte).unwrap();
}

#[test]
fn value_mutation_rekeys_the_cache() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let dir = TempDir::new("rekey");
    let pool = WorkerPool::new(2);
    let x = DenseMatrix::random(a.ncols(), D, 11);
    let cache = KernelCache::open(dir.path());
    let strategy = Strategy::row_split_dynamic_default();

    builder(&pool, strategy).kernel_cache_in(Arc::clone(&cache)).build(&a, D).unwrap();
    let populated = cache.stats();

    // Same shape, same structure, one value changed: a different matrix
    // must key differently (and must of course multiply correctly).
    let mut values: Vec<f32> = a.values().to_vec();
    values[0] += 1.0;
    let b = CsrMatrix::from_raw_parts(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_indices().to_vec(),
        values,
    )
    .unwrap();
    let engine = builder(&pool, strategy).kernel_cache_in(Arc::clone(&cache)).build(&b, D).unwrap();
    let after = cache.stats();
    assert_eq!(after.hits, populated.hits, "mutated matrix must not reuse the entry");
    assert!(after.stores > populated.stores, "mutated matrix stores its own entry");
    let (y, _) = engine.execute(&x).unwrap();
    assert!(y.approx_eq(&b.spmm_reference(&x), 1e-4));
}

#[test]
fn clear_and_capacity_bound_the_directory() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let a = small_uniform();
    let pool = WorkerPool::new(2);
    let dir = TempDir::new("cap");
    // Room for roughly one entry (the 4 KiB header dominates small
    // kernels): compiling for several d values must evict.
    let cache = KernelCache::with_capacity(dir.path(), 8 << 10);
    for d in [2usize, 4, 8] {
        builder(&pool, Strategy::RowSplitStatic)
            .kernel_cache_in(Arc::clone(&cache))
            .build(&a, d)
            .unwrap();
    }
    let stats = cache.stats();
    assert!(stats.evictions >= 1, "capacity must evict: {stats:?}");
    assert!(cache.size_bytes() <= 8 << 10, "directory stays under the cap");

    cache.clear();
    assert_eq!(cache.len(), 0, "clear removes every entry");
    assert_eq!(cache.size_bytes(), 0);

    // The cleared cache still works: next compile repopulates.
    let before = cache.stats();
    builder(&pool, Strategy::RowSplitStatic)
        .kernel_cache_in(Arc::clone(&cache))
        .build(&a, 4)
        .unwrap();
    assert!(cache.stats().stores > before.stores);
    assert!(!cache.is_empty());
}

// ---------------------------------------------------------------------------
// Two-process round trip: a cache populated by one process must warm-start a
// fresh process bit-identically. The parent re-runs this test binary to
// execute `child_populates_kernel_cache` in a separate process.
// ---------------------------------------------------------------------------

const CHILD_ENV: &str = "JITSPMM_CACHE_CHILD_DIR";

/// Not a test on its own: the populate half of the two-process round trip,
/// run by `warm_start_survives_a_process_boundary` in a child process.
#[test]
#[ignore]
fn child_populates_kernel_cache() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        eprintln!("skipping: populate-helper only runs under {CHILD_ENV}");
        return;
    };
    let a = small_uniform();
    let pool = WorkerPool::new(2);
    let x = DenseMatrix::random(a.ncols(), D, 21);
    let cache = KernelCache::open(&dir);
    let engine = JitSpmmBuilder::new()
        .pool(pool.clone())
        .threads(2)
        .tiered(TierPolicy::new().warmup(1))
        .kernel_cache_in(Arc::clone(&cache))
        .build(&a, D)
        .unwrap();
    assert!(engine.promote_now());
    let (y, _) = engine.execute(&x).unwrap();
    let raw: Vec<u8> = y.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(Path::new(&dir).join("expected-output.bin"), raw).unwrap();
}

#[test]
fn warm_start_survives_a_process_boundary() {
    if !host_supports_jit() {
        eprintln!("skipping: host lacks AVX/FMA");
        return;
    }
    let dir = TempDir::new("proc");
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(&exe)
        .args(["--exact", "child_populates_kernel_cache", "--ignored", "--test-threads=1"])
        .env(CHILD_ENV, dir.path())
        .status()
        .expect("spawning the populate child");
    assert!(status.success(), "populate child failed");
    let expected = std::fs::read(dir.path().join("expected-output.bin")).unwrap();

    // This process now plays "restarted server": same matrix spec, same
    // cache directory — must hit, warm-start promoted, and match bit-for-bit.
    let a = small_uniform();
    let pool = WorkerPool::new(2);
    let x = DenseMatrix::random(a.ncols(), D, 21);
    let cache = KernelCache::open(dir.path());
    let engine = JitSpmmBuilder::new()
        .pool(pool.clone())
        .threads(2)
        .tiered(TierPolicy::new().warmup(1))
        .kernel_cache_in(Arc::clone(&cache))
        .build(&a, D)
        .unwrap();
    let stats = cache.stats();
    assert!(stats.hits >= 1, "fresh process must hit the populated cache: {stats:?}");
    assert_eq!(stats.stores, 0, "nothing to store on a clean warm start: {stats:?}");
    assert_eq!(engine.tier(), KernelTier::Promoted, "promotion outcome crosses the process");
    let (y, _) = engine.execute(&x).unwrap();
    let raw: Vec<u8> = y.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(raw, expected, "cross-process output must be bit-identical");
}

// ---------------------------------------------------------------------------
// Property: sharing one cache directory across arbitrary distinct matrices
// never produces a wrong product — keys must separate them, and even
// pathological reuse recomputes correctly.
// ---------------------------------------------------------------------------

fn arb_matrix() -> impl PropStrategy<Value = (usize, usize, Vec<(usize, usize, f32)>)> {
    (2usize..24, 2usize..24).prop_flat_map(|(nrows, ncols)| {
        let entries = proptest::collection::vec((0..nrows, 0..ncols, -4.0f32..4.0f32), 1..80);
        (Just(nrows), Just(ncols), entries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shared_cache_never_aliases_distinct_matrices(
        (arows, acols, atriplets) in arb_matrix(),
        (brows, bcols, btriplets) in arb_matrix(),
        d in 1usize..5,
        seed in 0u64..1000,
    ) {
        if !host_supports_jit() {
            return Ok(());
        }
        let a = CsrMatrix::from_triplets(arows, acols, &atriplets).unwrap();
        let b = CsrMatrix::from_triplets(brows, bcols, &btriplets).unwrap();
        let dir = TempDir::new("prop");
        let pool = WorkerPool::new(1);
        let cache = KernelCache::open(dir.path());
        // a twice (second build may hit), then b into the same directory:
        // each engine must produce its own matrix's product.
        for m in [&a, &a, &b] {
            let x = DenseMatrix::random(m.ncols(), d, seed);
            let engine = JitSpmmBuilder::new()
                .pool(pool.clone())
                .threads(1)
                .kernel_cache_in(Arc::clone(&cache))
                .build(m, d)
                .unwrap();
            let (y, _) = engine.execute(&x).unwrap();
            prop_assert!(y.approx_eq(&m.spmm_reference(&x), 1e-4));
        }
    }
}
