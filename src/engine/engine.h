#ifndef IDEVAL_ENGINE_ENGINE_H_
#define IDEVAL_ENGINE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/sim_time.h"
#include "engine/buffer_pool.h"
#include "engine/cost_model.h"
#include "engine/kernels/kernels.h"
#include "engine/progressive.h"
#include "engine/query.h"
#include "storage/table.h"

namespace ideval {

/// Which backend regime the engine models (§7: PostgreSQL vs MemSQL).
enum class EngineProfile {
  /// Disk-based interpreted row store with a buffer pool.
  kDiskRowStore,
  /// In-memory compiled column store.
  kInMemoryColumnStore,
};

const char* EngineProfileToString(EngineProfile profile);

/// Construction options.
struct EngineOptions {
  EngineProfile profile = EngineProfile::kInMemoryColumnStore;
  /// Buffer pool capacity for the disk profile, in pages. The default
  /// (16384 pages = 128 MB at 8 KB pages) mirrors PostgreSQL's stock
  /// shared_buffers.
  int64_t buffer_pool_pages = 16384;
  /// Overrides the profile's calibrated cost model when set.
  std::optional<CostModel> cost_model;
  /// Build per-block min/max zone maps at `RegisterTable` and let
  /// `ExecuteSelect` / `ExecuteHistogram` skip blocks whose summarized
  /// range cannot satisfy a range predicate. Results stay bitwise
  /// identical to an unpruned scan; only the work counters (and therefore
  /// the modelled time and page charges) shrink. Off by default so
  /// existing calibrated workloads keep their exact cost accounting.
  bool enable_zone_maps = false;
  /// Rows per zone-map block. 4096 tracks common columnar block sizes.
  int64_t zone_map_block_rows = 4096;
  /// Which SIMD kernel table the scan/filter/histogram hot loops dispatch
  /// to (docs/kernels.md). `kAuto` (the default) resolves once from a
  /// runtime CPUID probe; pin an explicit ISA to compare implementations
  /// or debug — results are bitwise identical either way, only speed
  /// changes. Requesting an ISA the CPU lacks falls back to scalar.
  KernelIsa kernel_isa = KernelIsa::kAuto;
};

/// Shared work queue for morsel-driven parallel execution: the table is
/// cut into fixed `morsel_rows` stretches and workers claim the next
/// morsel with one atomic increment — workers that finish early steal
/// the work a static range split would have stranded on the slowest
/// peer. A queue is single-use: once `next` reaches `num_morsels` the
/// plan holding it has been fully executed and cannot run again.
struct MorselQueue {
  std::atomic<int64_t> next{0};
  int64_t morsel_rows = 0;
  int64_t num_morsels = 0;
};

/// Cumulative zone-map pruning effect across all queries an engine has
/// executed since construction or the last `ClearCaches`.
struct ScanPruneTotals {
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;

  double PrunedFraction() const {
    const int64_t total = blocks_scanned + blocks_pruned;
    return total > 0 ? static_cast<double>(blocks_pruned) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// Everything the backend returns for one query: the data, the work
/// counters, and the modelled server-side time components.
struct QueryResponse {
  QueryResultData data;
  QueryWorkStats stats;
  Duration execution_time;        ///< Scan/eval/join/paging.
  Duration post_aggregation_time; ///< Group finalize + materialization.

  /// execution + post-aggregation (server total, excluding queueing and
  /// network which the scheduler adds).
  Duration ServerTime() const {
    return execution_time + post_aggregation_time;
  }
};

/// A single-node query engine over registered in-memory tables.
///
/// The engine *actually executes* relational operators (range filters,
/// histogram group-by, paged hash joins) so that results are real and
/// data-dependent; simulated time comes from the `CostModel` applied to
/// the work the operators performed. `Execute` is deterministic.
///
/// Thread safety: once all tables are registered, `Execute` may be called
/// concurrently from any number of threads — tables are immutable and the
/// only mutable execution state (the disk profile's buffer pool) is guarded
/// internally. `RegisterTable` and `ClearCaches` must not race with
/// `Execute`.
class Engine {
 public:
  explicit Engine(EngineOptions options);

  /// Registers a table under its own name and — with
  /// `EngineOptions::enable_zone_maps` — builds its per-block min/max
  /// zone maps. Errors on duplicates. Not safe to call concurrently with
  /// `Execute`; callers serving live traffic must quiesce first (see
  /// `ClearCaches`) and invalidate any result cache layered above the
  /// engine, since a new table changes what queries can mean.
  Status RegisterTable(TablePtr table);

  /// Executes any supported query. Safe for concurrent callers.
  Result<QueryResponse> Execute(const Query& query) const;

  /// Deadline-aware block-incremental histogram — the progressive serve
  /// mode (docs/progressive.md). Runs `RunDeadlineHistogram` over the
  /// registered table and its zone maps; a run that completes before the
  /// deadline is bitwise-identical to `Execute`, an interrupted run
  /// returns a scaled estimate with per-bin confidence intervals. Page
  /// charges are not modelled (progressive serving targets the in-memory
  /// profile). Safe for concurrent callers.
  Result<ProgressiveHistogramResult> ExecuteHistogramProgressive(
      const HistogramQuery& query,
      const ProgressiveDeadlineOptions& options) const;

  /// Morsel-driven histogram execution: claims morsels from the shared
  /// `queue` until it drains, scanning only the claimed stretches. The
  /// partial histograms of all participants sum bitwise to the
  /// single-engine result (int64 bin counts are order-independent), and
  /// the work counters partition exactly: summed across participants
  /// they equal the counters of one full `Execute` — each zone-map block
  /// is scanned or pruned by exactly one participant as long as
  /// `queue->morsel_rows` is a multiple of `zone_map_block_rows`
  /// (`ShardedEngine` rounds it up at construction). Safe for concurrent
  /// callers sharing one queue; every participant must target the same
  /// registered table.
  Result<QueryResponse> ExecuteHistogramMorsels(const HistogramQuery& query,
                                                MorselQueue* queue) const;

  EngineProfile profile() const { return options_.profile; }
  const CostModel& cost_model() const { return cost_model_; }

  /// The ISA the scan kernels resolved to (never `kAuto`).
  KernelIsa kernel_isa() const { return kops_->isa; }

  /// Buffer pool (disk profile only; null for the memory profile). Reading
  /// its counters while queries execute concurrently is racy — quiesce
  /// first.
  const BufferPool* buffer_pool() const { return buffer_pool_.get(); }

  /// Drops ephemeral execution state to model a cold start: clears the
  /// buffer pool and resets the cumulative `PruneTotals` counters. Zone
  /// maps themselves survive — they are derived from immutable table data
  /// (on-disk metadata in a real system), not a cache of query results.
  ///
  /// Quiesce contract: not safe to call concurrently with `Execute`. The
  /// caller must first drain every in-flight query (e.g.
  /// `QueryServer::Drain`), and any result cache layered above this
  /// engine must be invalidated in the same quiesced window — a cached
  /// response carries page-charge timings from the pre-clear pool state.
  void ClearCaches();

  /// Borrows a registered table.
  Result<TablePtr> GetTable(const std::string& name) const;

  /// Zone maps for a registered table; null when zone maps are disabled
  /// or the table is unknown. Immutable once built.
  const TableZoneMaps* ZoneMapsFor(const std::string& name) const;

  /// Cumulative pruning counters since construction or `ClearCaches`.
  /// Safe to read concurrently with `Execute` (monotonic atomics), though
  /// a concurrent read is naturally a moving target.
  ScanPruneTotals PruneTotals() const {
    return ScanPruneTotals{
        blocks_scanned_total_.load(std::memory_order_relaxed),
        blocks_pruned_total_.load(std::memory_order_relaxed)};
  }

 private:
  Result<QueryResponse> ExecuteSelect(const SelectQuery& query) const;
  /// Histogram over every row (`queue` null) or over the morsels claimed
  /// from `queue` until it drains.
  Result<QueryResponse> ExecuteHistogram(const HistogramQuery& query,
                                         MorselQueue* queue = nullptr) const;
  Result<QueryResponse> ExecuteJoinPage(const JoinPageQuery& query) const;

  /// Charges buffer-pool page accesses for visiting `tuples` consecutive
  /// tuples of `table` starting at row `first_row`. Serialized internally
  /// so concurrent queries contend on the pool like real backend workers.
  void ChargePages(const Table& table, int64_t first_row, int64_t tuples,
                   QueryWorkStats* stats) const;

  void FinalizeTimes(QueryResponse* response) const;

  /// The one contiguous block walk under every scan (select, full
  /// histogram, each claimed morsel): visits rows [begin, end) of `table`
  /// in `prune_maps` blocks (the whole range as one block when null),
  /// skipping blocks `preds` rules out and charging pages per contiguous
  /// run of visited blocks, so a walk that prunes nothing charges exactly
  /// the pages of an unpruned scan. `scan(b, e)` scans one block and
  /// returns nullopt to go on, or the row it stopped at to end the walk.
  template <typename ScanFn>
  void WalkBlocks(const Table& table, const CompiledPredicates& preds,
                  const TableZoneMaps* prune_maps, int64_t begin,
                  int64_t end, QueryWorkStats* stats, ScanFn&& scan) const;

  /// Folds a finished scan's block counters into the engine totals.
  void RecordPruning(const QueryWorkStats& stats) const {
    if (stats.blocks_scanned == 0 && stats.blocks_pruned == 0) return;
    blocks_scanned_total_.fetch_add(stats.blocks_scanned,
                                    std::memory_order_relaxed);
    blocks_pruned_total_.fetch_add(stats.blocks_pruned,
                                   std::memory_order_relaxed);
  }

  EngineOptions options_;
  CostModel cost_model_;
  /// Resolved kernel dispatch table (one-time CPUID probe at
  /// construction; immutable afterwards, so concurrent Execute calls
  /// share it freely).
  const KernelOps* kops_ = nullptr;
  std::map<std::string, TablePtr> tables_;
  /// Zone maps per registered table; populated by `RegisterTable` when
  /// enabled, read-only afterwards (same lifecycle as `tables_`).
  std::map<std::string, TableZoneMaps> zone_maps_;
  mutable std::mutex pool_mu_;  ///< Guards buffer_pool_ contents.
  std::unique_ptr<BufferPool> buffer_pool_;
  mutable std::atomic<int64_t> blocks_scanned_total_{0};
  mutable std::atomic<int64_t> blocks_pruned_total_{0};
};

}  // namespace ideval

#endif  // IDEVAL_ENGINE_ENGINE_H_
