#include "engine/histogram_scan.h"

#include <algorithm>
#include <utility>

namespace ideval {

Result<HistogramScan> HistogramScan::Prepare(const Table& table,
                                             const TableZoneMaps* zone_maps,
                                             const HistogramQuery& query,
                                             const KernelOps& ops) {
  HistogramScan scan;
  IDEVAL_ASSIGN_OR_RETURN(scan.preds,
                          CompiledPredicates::Compile(table, query.predicates));
  IDEVAL_ASSIGN_OR_RETURN(const Column* bin_col,
                          table.ColumnByName(query.bin_column));
  if (bin_col->type() == DataType::kString) {
    return Status::InvalidArgument("histogram over string column '" +
                                   query.bin_column + "'");
  }
  if (query.bins <= 0) {
    return Status::InvalidArgument("histogram bins must be > 0");
  }
  // Probe the bin range (lo < hi etc.); `Finish` builds the real one.
  IDEVAL_RETURN_NOT_OK(
      FixedHistogram::Make(query.bin_lo, query.bin_hi,
                           static_cast<size_t>(query.bins))
          .status());
  const bool is_int = bin_col->type() == DataType::kInt64;
  scan.ops = &ops;
  scan.int_vals = is_int ? bin_col->int64_data().data() : nullptr;
  scan.dbl_vals = is_int ? nullptr : bin_col->double_data().data();
  scan.lo = query.bin_lo;
  scan.hi = query.bin_hi;
  scan.bins = query.bins;
  scan.prune_maps = scan.preds.PruneMaps(zone_maps);
  return scan;
}

void HistogramScan::ScanBlock(int64_t begin, int64_t end, int64_t* counts,
                              QueryWorkStats* stats) const {
  stats->tuples_scanned += end - begin;
  const bool no_preds = preds.num_predicates() == 0;
  // Fused fast path (the crossfilter shape): every conjunct an f64
  // range and an f64 bin column. One unchunked pass — the fused kernel
  // keeps pass bits in registers, so there is no mask buffer whose
  // footprint would force chunking. Clause count is capped only by the
  // stack array below; conjunctions past it take the generic mask path.
  constexpr size_t kMaxFusedClauses = 8;
  if (!no_preds && dbl_vals != nullptr && preds.AllF64Ranges() &&
      preds.num_ranges() <= kMaxFusedClauses) {
    F64RangeClause clauses[kMaxFusedClauses];
    preds.FillF64Clauses(static_cast<size_t>(begin), clauses);
    stats->tuples_matched += ops->hist_ranges_f64(
        dbl_vals + begin, end - begin, lo, hi, bins, clauses,
        static_cast<int>(preds.num_ranges()), counts);
    return;
  }
  alignas(64) uint8_t mask[kKernelScanChunk];
  int64_t matched = 0;
  for (int64_t c = begin; c < end; c += kKernelScanChunk) {
    const int64_t len = std::min<int64_t>(kKernelScanChunk, end - c);
    if (no_preds) {
      matched += int_vals != nullptr
                     ? ops->hist_i64(int_vals + c, len, lo, hi, bins, counts)
                     : ops->hist_f64(dbl_vals + c, len, lo, hi, bins,
                                     counts);
      continue;
    }
    preds.EvalMask(*ops, static_cast<size_t>(c), len, mask);
    matched += int_vals != nullptr
                   ? ops->hist_masked_i64(int_vals + c, mask, len, lo, hi,
                                          bins, counts)
                   : ops->hist_masked_f64(dbl_vals + c, mask, len, lo, hi,
                                          bins, counts);
  }
  stats->tuples_matched += matched;
}

Result<FixedHistogram> HistogramScan::Finish(std::vector<double> counts,
                                             QueryWorkStats* stats) const {
  stats->predicates_evaluated =
      stats->tuples_scanned * static_cast<int64_t>(preds.num_predicates());
  stats->groups_built = bins;
  stats->rows_output = bins;
  stats->bytes_output = static_cast<double>(bins) * 16.0;
  return FixedHistogram::FromCounts(lo, hi, std::move(counts));
}

}  // namespace ideval
