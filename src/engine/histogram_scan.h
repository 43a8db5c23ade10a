#ifndef IDEVAL_ENGINE_HISTOGRAM_SCAN_H_
#define IDEVAL_ENGINE_HISTOGRAM_SCAN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "engine/kernels/kernels.h"
#include "engine/predicate.h"
#include "engine/query.h"
#include "storage/table.h"

namespace ideval {

/// One filtered histogram scan, prepared once: the engine-internal
/// primitive under every histogram driver. `Engine` walks contiguous row
/// ranges through it (the full scan and the morsel steal loop);
/// `RunDeadlineHistogram` visits permuted blocks. Borrows the table's
/// column storage, so the table must outlive the scan.
struct HistogramScan {
  /// Validates `query` against `table` (numeric bin column, `bins > 0`,
  /// a valid bin range) before any scan, compiles its predicates and
  /// borrows the bin column. The scan prunes with `zone_maps` (may be
  /// null) only if they hold blocks and the query has a range conjunct.
  static Result<HistogramScan> Prepare(const Table& table,
                                       const TableZoneMaps* zone_maps,
                                       const HistogramQuery& query,
                                       const KernelOps& ops);

  /// Bins the matching rows of [begin, end) into `counts` (exact int64,
  /// accumulating, `FixedHistogram::Add` semantics) and adds the rows
  /// visited and matched to `stats`. Counts are exact, so any split of a
  /// range across calls sums to the same counts.
  void ScanBlock(int64_t begin, int64_t end, int64_t* counts,
                 QueryWorkStats* stats) const;

  /// Fills the output counters of `stats` and builds the histogram from
  /// `counts` (exact counts or a scaled estimate).
  Result<FixedHistogram> Finish(std::vector<double> counts,
                                QueryWorkStats* stats) const;

  CompiledPredicates preds;
  const KernelOps* ops = nullptr;
  const int64_t* int_vals = nullptr;  ///< Bin column, if int64.
  const double* dbl_vals = nullptr;   ///< Bin column, if double.
  double lo = 0.0;
  double hi = 0.0;
  int64_t bins = 0;
  const TableZoneMaps* prune_maps = nullptr;  ///< Null: no pruning.
};

}  // namespace ideval

#endif  // IDEVAL_ENGINE_HISTOGRAM_SCAN_H_
