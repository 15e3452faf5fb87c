//! The shard planner: split one CSR matrix into contiguous row shards
//! balanced by non-zero count, and pick a workload-division strategy per
//! shard to match its local sparsity.

use crate::error::JitSpmmError;
use crate::schedule::{
    nnz_imbalance_of, partition_nnz_split, partition_row_split, RowRange, Strategy,
};
use jitspmm_sparse::{CsrMatrix, Scalar};

/// Row-split imbalance above which a shard is considered *skewed* and gets
/// the dynamic claim-loop strategy instead of static row ranges. At or below
/// it, static row-split already balances the shard's non-zeros well enough
/// that the claim loop's `lock xadd` traffic is pure overhead.
const SKEW_THRESHOLD: f64 = 1.25;

/// One planned shard: a contiguous row range of the full matrix, the
/// extracted sub-CSR a [`crate::JitSpmm`] engine will be compiled against,
/// and the workload-division strategy the planner chose for it.
#[derive(Debug)]
pub struct ShardSpec<T: Scalar> {
    /// The shard's rows, in full-matrix row numbering.
    pub rows: RowRange,
    /// The shard's sub-matrix: rows `rows.start..rows.end` of the full
    /// matrix with row pointers rebased to zero, columns unchanged. Row `r`
    /// of this matrix is row `rows.start + r` of the full matrix, with the
    /// same non-zeros in the same order — so a kernel compiled against it
    /// produces bit-identical rows.
    ///
    /// A **zero-copy view** ([`CsrMatrix::share_rows`]): its
    /// `col_indices`/`values` alias the parent matrix's buffers, and only
    /// the rebased `row_ptr` is materialized.
    pub matrix: CsrMatrix<T>,
    /// The strategy the planner chose: static row-split for shards whose
    /// rows are evenly loaded, the dynamic claim loop for skewed ones.
    pub strategy: Strategy,
}

impl<T: Scalar> ShardSpec<T> {
    /// Number of non-zeros in this shard.
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }
}

/// A sharding plan for one sparse matrix, produced by [`plan_shards`]: K
/// contiguous row shards balanced by non-zero count, each carrying its
/// extracted sub-matrix and per-shard strategy. The plan owns the shard
/// matrices; a [`crate::MutableSpmm`] owns one per generation and compiles
/// one engine per shard.
#[derive(Debug)]
pub struct ShardPlan<T: Scalar> {
    shards: Vec<ShardSpec<T>>,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    lanes: usize,
    imbalance: f64,
}

impl<T: Scalar> ShardPlan<T> {
    /// The planned shards, in row order.
    pub fn shards(&self) -> &[ShardSpec<T>] {
        &self.shards
    }

    /// Number of shards in the plan. May be less than requested: the shard
    /// count is clamped to the row count, and cut boundaries that would
    /// produce zero-row shards are merged away.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// A plan always has at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Rows of the full matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the full matrix (every shard shares them).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Non-zeros of the full matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The per-shard lane count the plan was made for (the strategy
    /// heuristic judges skew at this lane count, and
    /// [`crate::MutableSpmm`] caps each shard engine to it).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The achieved balance: heaviest shard's non-zeros over the average
    /// (1.0 is perfect). Computed with
    /// [`nnz_imbalance_of`](crate::schedule::nnz_imbalance_of), the same
    /// metric the workload-division layer reports.
    pub fn nnz_imbalance(&self) -> f64 {
        self.imbalance
    }

    /// Assemble a plan from already-built shard specs — the
    /// incremental-update path ([`crate::update`]), which surgically
    /// replaces the touched shards of an existing plan while keeping the
    /// untouched specs (and their cut points) verbatim. The specs must be
    /// contiguous in row order starting at row 0; aggregate counts and the
    /// imbalance are recomputed from the specs.
    pub(crate) fn from_parts(
        shards: Vec<ShardSpec<T>>,
        ncols: usize,
        lanes: usize,
    ) -> ShardPlan<T> {
        debug_assert!(!shards.is_empty());
        debug_assert!(shards.first().is_none_or(|s| s.rows.start == 0));
        debug_assert!(shards.windows(2).all(|w| w[0].rows.end == w[1].rows.start));
        let nrows = shards.last().map_or(0, |s| s.rows.end);
        let nnz: usize = shards.iter().map(ShardSpec::nnz).sum();
        let imbalance = nnz_imbalance_of_specs(&shards);
        ShardPlan { shards, nrows, ncols, nnz, lanes: lanes.max(1), imbalance }
    }
}

/// Heaviest shard's non-zeros over the average — the same metric
/// [`nnz_imbalance_of`] computes from ranges, evaluated directly on built
/// specs (used by [`ShardPlan::from_parts`] and the update layer's replan
/// drift check).
pub(crate) fn nnz_imbalance_of_specs<T: Scalar>(shards: &[ShardSpec<T>]) -> f64 {
    let total: usize = shards.iter().map(ShardSpec::nnz).sum();
    if total == 0 || shards.is_empty() {
        return 1.0;
    }
    let heaviest = shards.iter().map(ShardSpec::nnz).max().unwrap_or(0) as f64;
    heaviest / (total as f64 / shards.len() as f64)
}

/// Plan `shards` contiguous row shards of `matrix`, balanced by non-zero
/// count, for shard engines running `lanes` worker lanes each (`lanes` also
/// feeds the per-shard strategy heuristic; `0` is treated as 1).
///
/// The cut is a greedy prefix-sum split over the row-pointer array — the
/// `t`-th boundary lands on the row whose non-zero prefix is closest to
/// `t * nnz / shards` — so every shard receives approximately the same
/// number of non-zeros whatever the row-length distribution. The shard
/// count is clamped to the row count, and boundaries that would create
/// zero-row shards collapse (the plan reports how many shards survived via
/// [`ShardPlan::len`]). Each shard then gets a strategy matched to its
/// *local* sparsity: near-uniform shards take static row-split, shards
/// whose static split would exceed a 1.25x non-zero imbalance take the
/// dynamic claim loop.
///
/// Shard sub-matrices are **zero-copy views** of the parent
/// ([`CsrMatrix::share_rows`]): each shard's `col_indices`/`values` alias
/// the parent's shared buffers — the plan keeps those buffers alive via
/// reference counts, without the caller's `&matrix` borrow — and only the
/// rebased `row_ptr` (one `u64` per shard row) is materialized. Planning is
/// therefore O(rows) extra memory instead of doubling resident non-zero
/// data, and the shard arrays' base addresses the engines embed in
/// generated code point straight into the parent's (node-placeable) pages.
///
/// # Errors
///
/// [`JitSpmmError::InvalidConfig`] if `shards` is zero, and
/// [`JitSpmmError::EmptySparseMatrix`] if the matrix has no rows — there is
/// nothing to split, and a shard engine compiled against a zero-row matrix
/// could never execute.
pub fn plan_shards<T: Scalar>(
    matrix: &CsrMatrix<T>,
    shards: usize,
    lanes: usize,
) -> Result<ShardPlan<T>, JitSpmmError> {
    if shards == 0 {
        return Err(JitSpmmError::InvalidConfig(
            "a shard plan needs at least one shard".to_string(),
        ));
    }
    if matrix.nrows() == 0 {
        return Err(JitSpmmError::EmptySparseMatrix);
    }
    let lanes = lanes.max(1);
    let k = shards.min(matrix.nrows());
    // Greedy prefix-sum cut: `partition_nnz_split` places boundary t at the
    // first row whose prefix reaches t*nnz/k; nudge each boundary back one
    // row when the previous prefix is strictly closer to the target, which
    // halves the worst-case overshoot a heavy boundary row causes.
    let base = partition_nnz_split(matrix, k);
    let row_ptr = matrix.row_ptr();
    let total = matrix.nnz() as u64;
    let mut boundaries = vec![0usize];
    for (t, range) in base.ranges.iter().enumerate().skip(1) {
        let target = total * t as u64 / k as u64;
        let mut row = range.start;
        if row > 0 && row_ptr[row] - target > target - row_ptr[row - 1] {
            row -= 1;
        }
        let floor = *boundaries.last().expect("boundaries start non-empty");
        boundaries.push(row.max(floor));
    }
    boundaries.push(matrix.nrows());
    let ranges: Vec<RowRange> = boundaries
        .windows(2)
        .map(|w| RowRange { start: w[0], end: w[1] })
        .filter(|r| !r.is_empty())
        .collect();
    let imbalance = nnz_imbalance_of(&ranges, matrix);
    let shards = ranges
        .into_iter()
        .map(|rows| {
            let sub = extract(matrix, rows);
            let strategy = choose_strategy(&sub, lanes);
            ShardSpec { rows, matrix: sub, strategy }
        })
        .collect();
    Ok(ShardPlan {
        shards,
        nrows: matrix.nrows(),
        ncols: matrix.ncols(),
        nnz: matrix.nnz(),
        lanes,
        imbalance,
    })
}

/// Extract rows `rows.start..rows.end` of `matrix` as a zero-copy view with
/// rebased row pointers ([`CsrMatrix::share_rows`]). Column indices and
/// values alias the parent's buffers verbatim, in order, so per-row
/// arithmetic against the extracted matrix is bit-identical to the full one.
fn extract<T: Scalar>(matrix: &CsrMatrix<T>, rows: RowRange) -> CsrMatrix<T> {
    matrix.share_rows(rows.start, rows.end)
}

/// The per-shard strategy heuristic: judge how far a static row-split at
/// `lanes` would be from non-zero balance *inside this shard*. Dense or
/// uniform shards stay static (no claim-loop traffic); skewed shards — a
/// hub row next to near-empty rows — take the dynamic claim loop, which
/// rebalances at run time. Crate-visible so the update layer re-judges a
/// merged shard's local sparsity when rebuilding it.
pub(crate) fn choose_strategy<T: Scalar>(shard: &CsrMatrix<T>, lanes: usize) -> Strategy {
    if lanes <= 1 {
        // One lane has nothing to balance; the claim loop would only cost.
        return Strategy::RowSplitStatic;
    }
    let imbalance = partition_row_split(shard, lanes).nnz_imbalance(shard);
    if imbalance > SKEW_THRESHOLD {
        Strategy::row_split_dynamic_default()
    } else {
        Strategy::RowSplitStatic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitspmm_sparse::generate;

    #[test]
    fn plan_balances_nonzeros_on_power_law_matrices() {
        let m = generate::rmat::<f32>(13, 200_000, generate::RmatConfig::GRAPH500, 7);
        for k in [2usize, 4, 8] {
            let plan = plan_shards(&m, k, 2).unwrap();
            assert_eq!(plan.len(), k);
            assert_eq!(plan.shards().iter().map(ShardSpec::nnz).sum::<usize>(), m.nnz());
            assert!(
                plan.nnz_imbalance() <= 1.10,
                "k = {k}: imbalance {} exceeds the 1.10 planning target",
                plan.nnz_imbalance()
            );
        }
    }

    #[test]
    fn shards_are_contiguous_and_cover_all_rows() {
        let m = generate::uniform::<f32>(500, 300, 6_000, 3);
        let plan = plan_shards(&m, 4, 2).unwrap();
        assert_eq!(plan.shards()[0].rows.start, 0);
        assert_eq!(plan.shards().last().unwrap().rows.end, m.nrows());
        for pair in plan.shards().windows(2) {
            assert_eq!(pair[0].rows.end, pair[1].rows.start);
        }
        for shard in plan.shards() {
            assert_eq!(shard.matrix.nrows(), shard.rows.len());
            assert_eq!(shard.matrix.ncols(), m.ncols());
        }
    }

    #[test]
    fn extracted_shards_preserve_rows_bit_for_bit() {
        let m = generate::rmat::<f32>(8, 3_000, generate::RmatConfig::WEB, 5);
        let plan = plan_shards(&m, 3, 2).unwrap();
        for shard in plan.shards() {
            for local in 0..shard.matrix.nrows() {
                let full_row = shard.rows.start + local;
                assert_eq!(shard.matrix.row_cols(local), m.row_cols(full_row));
                assert_eq!(shard.matrix.row_values(local), m.row_values(full_row));
            }
        }
    }

    #[test]
    fn shard_count_is_clamped_and_empty_ranges_collapse() {
        // 5 rows, 16 requested shards: at most 5 survive, none empty.
        let m = generate::banded::<f32>(5, 1, 0);
        let plan = plan_shards(&m, 16, 1).unwrap();
        assert!(plan.len() <= 5);
        assert!(plan.shards().iter().all(|s| !s.rows.is_empty()));
        let covered: usize = plan.shards().iter().map(|s| s.rows.len()).sum();
        assert_eq!(covered, 5);
        // All non-zeros in one row: the cuts collapse around it instead of
        // producing zero-row shards.
        let hub = CsrMatrix::<f32>::from_triplets(8, 8, &[(0, 1, 1.0), (0, 3, 2.0)]).unwrap();
        let plan = plan_shards(&hub, 4, 1).unwrap();
        assert!(plan.shards().iter().all(|s| !s.rows.is_empty()));
        assert_eq!(plan.shards().iter().map(|s| s.rows.len()).sum::<usize>(), 8);
    }

    #[test]
    fn planner_rejects_degenerate_requests() {
        let m = generate::uniform::<f32>(10, 10, 50, 1);
        assert!(matches!(plan_shards(&m, 0, 1).unwrap_err(), JitSpmmError::InvalidConfig(_)));
        let empty = CsrMatrix::<f32>::zeros(0, 10);
        assert!(matches!(plan_shards(&empty, 2, 1).unwrap_err(), JitSpmmError::EmptySparseMatrix));
    }

    #[test]
    fn strategy_heuristic_matches_local_sparsity() {
        // A uniform band: every row equally loaded, static everywhere.
        let banded = generate::banded::<f32>(400, 2, 0);
        let plan = plan_shards(&banded, 2, 4).unwrap();
        assert!(plan.shards().iter().all(|s| s.strategy == Strategy::RowSplitStatic));
        // One hub row among empties: the static split is skewed, go dynamic.
        let mut triplets: Vec<(usize, usize, f32)> = (0..200).map(|c| (0usize, c, 1.0)).collect();
        triplets.push((199, 0, 1.0));
        let skewed = CsrMatrix::<f32>::from_triplets(200, 200, &triplets).unwrap();
        let plan = plan_shards(&skewed, 1, 4).unwrap();
        assert_eq!(plan.len(), 1);
        assert!(plan.shards()[0].strategy.is_dynamic());
        // At one lane there is nothing to balance: always static.
        let plan = plan_shards(&skewed, 1, 1).unwrap();
        assert_eq!(plan.shards()[0].strategy, Strategy::RowSplitStatic);
    }

    #[test]
    fn shard_plans_hold_no_copied_nnz_arrays() {
        // The zero-copy guarantee this module documents: every shard's
        // col_indices/values alias the parent's shared buffers at exactly
        // the parent's element addresses — no nnz data was copied.
        let m = generate::rmat::<f32>(10, 20_000, generate::RmatConfig::GRAPH500, 11);
        let plan = plan_shards(&m, 4, 2).unwrap();
        for shard in plan.shards() {
            assert!(shard.matrix.shares_storage_with(&m));
            let lo = m.row_ptr()[shard.rows.start] as usize;
            assert_eq!(shard.matrix.col_indices().as_ptr(), m.col_indices()[lo..].as_ptr());
            assert_eq!(shard.matrix.values().as_ptr(), m.values()[lo..].as_ptr());
        }
    }

    #[test]
    fn plan_keeps_shared_buffers_alive_without_the_parent_borrow() {
        // The plan's reference counts — not the caller's `&matrix` borrow —
        // keep the nnz buffers alive: the parent can be dropped while the
        // plan (and the engines compiled against its shard views) lives on.
        let m = generate::uniform::<f32>(300, 200, 4_000, 9);
        let expected: Vec<f32> = m.values().to_vec();
        let plan = plan_shards(&m, 3, 2).unwrap();
        drop(m);
        let collected: Vec<f32> =
            plan.shards().iter().flat_map(|s| s.matrix.values().iter().copied()).collect();
        assert_eq!(collected, expected);
    }

    #[test]
    fn zero_nnz_matrices_plan_into_one_empty_shard() {
        let m = CsrMatrix::<f32>::zeros(12, 6);
        let plan = plan_shards(&m, 4, 2).unwrap();
        assert_eq!(plan.nnz(), 0);
        assert_eq!(plan.nnz_imbalance(), 1.0);
        assert_eq!(plan.shards().iter().map(|s| s.rows.len()).sum::<usize>(), 12);
    }
}
