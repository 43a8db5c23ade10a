#include "engine/engine.h"

#include <algorithm>
#include <unordered_map>

#include "engine/histogram_scan.h"

namespace ideval {

const char* EngineProfileToString(EngineProfile profile) {
  switch (profile) {
    case EngineProfile::kDiskRowStore:
      return "disk-row-store";
    case EngineProfile::kInMemoryColumnStore:
      return "in-memory-column-store";
  }
  return "unknown";
}

Engine::Engine(EngineOptions options)
    : options_(options), kops_(&GetKernelOps(options.kernel_isa)) {
  if (options_.cost_model.has_value()) {
    cost_model_ = *options_.cost_model;
  } else if (options_.profile == EngineProfile::kDiskRowStore) {
    cost_model_ = CostModel::DiskRowStore();
  } else {
    cost_model_ = CostModel::InMemoryColumnStore();
  }
  if (options_.profile == EngineProfile::kDiskRowStore) {
    buffer_pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages);
  }
}

Status Engine::RegisterTable(TablePtr table) {
  if (table == nullptr) {
    return Status::InvalidArgument("RegisterTable: null table");
  }
  const std::string& name = table->name();
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  if (options_.enable_zone_maps) {
    if (options_.zone_map_block_rows < 1) {
      return Status::InvalidArgument("zone_map_block_rows must be >= 1");
    }
    zone_maps_[name] = table->BuildZoneMaps(options_.zone_map_block_rows);
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

const TableZoneMaps* Engine::ZoneMapsFor(const std::string& name) const {
  auto it = zone_maps_.find(name);
  return it != zone_maps_.end() ? &it->second : nullptr;
}

Result<TablePtr> Engine::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' is not registered");
  }
  return it->second;
}

void Engine::ClearCaches() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (buffer_pool_ != nullptr) buffer_pool_->Clear();
  blocks_scanned_total_.store(0, std::memory_order_relaxed);
  blocks_pruned_total_.store(0, std::memory_order_relaxed);
}

void Engine::ChargePages(const Table& table, int64_t first_row,
                         int64_t tuples, QueryWorkStats* stats) const {
  if (buffer_pool_ == nullptr || tuples <= 0) return;
  const int64_t per_page = cost_model_.TuplesPerPage(table.AvgRowBytes());
  const int64_t first_page = first_row / per_page;
  const int64_t last_page = (first_row + tuples - 1) / per_page;
  std::lock_guard<std::mutex> lock(pool_mu_);
  for (int64_t p = first_page; p <= last_page; ++p) {
    ++stats->pages_requested;
    if (!buffer_pool_->Access(PageId{table.name(), p})) {
      ++stats->pages_missed;
    }
  }
}

void Engine::FinalizeTimes(QueryResponse* response) const {
  response->execution_time = cost_model_.ExecutionTime(response->stats);
  response->post_aggregation_time =
      cost_model_.PostAggregationTime(response->stats);
}

template <typename ScanFn>
void Engine::WalkBlocks(const Table& table, const CompiledPredicates& preds,
                        const TableZoneMaps* prune_maps, int64_t begin,
                        int64_t end, QueryWorkStats* stats,
                        ScanFn&& scan) const {
  // Zone maps skip whole blocks whose min/max range is disjoint from a
  // range conjunct — those rows cannot match, so results are bitwise
  // identical to the full walk; only the work (and modelled time) drops.
  const int64_t block_rows =
      prune_maps != nullptr ? prune_maps->block_rows : end - begin;
  int64_t run_begin = -1;
  auto flush_run = [&](int64_t run_end) {
    if (run_begin >= 0) {
      ChargePages(table, run_begin, run_end - run_begin, stats);
    }
    run_begin = -1;
  };
  for (int64_t b = begin; b < end; b += block_rows) {
    if (prune_maps != nullptr) {
      if (!preds.MayMatchBlock(*prune_maps,
                               static_cast<size_t>(b / block_rows))) {
        ++stats->blocks_pruned;
        flush_run(b);
        continue;
      }
      ++stats->blocks_scanned;
    }
    if (run_begin < 0) run_begin = b;
    if (const std::optional<int64_t> stop =
            scan(b, std::min(end, b + block_rows))) {
      flush_run(*stop);
      return;
    }
  }
  flush_run(end);
}

Result<QueryResponse> Engine::Execute(const Query& query) const {
  Result<QueryResponse> r = [&] {
    if (const auto* s = std::get_if<SelectQuery>(&query)) {
      return ExecuteSelect(*s);
    }
    if (const auto* h = std::get_if<HistogramQuery>(&query)) {
      return ExecuteHistogram(*h);
    }
    return ExecuteJoinPage(std::get<JoinPageQuery>(query));
  }();
  if (r.ok()) RecordPruning(r->stats);
  return r;
}

Result<ProgressiveHistogramResult> Engine::ExecuteHistogramProgressive(
    const HistogramQuery& query,
    const ProgressiveDeadlineOptions& options) const {
  IDEVAL_ASSIGN_OR_RETURN(TablePtr table, GetTable(query.table));
  Result<ProgressiveHistogramResult> r = RunDeadlineHistogram(
      table, ZoneMapsFor(query.table), query, options, cost_model_, kops_);
  if (r.ok()) RecordPruning(r->stats);
  return r;
}

Result<QueryResponse> Engine::ExecuteSelect(const SelectQuery& query) const {
  IDEVAL_ASSIGN_OR_RETURN(TablePtr table, GetTable(query.table));
  IDEVAL_ASSIGN_OR_RETURN(
      CompiledPredicates preds,
      CompiledPredicates::Compile(*table, query.predicates));

  // Resolve projection.
  std::vector<size_t> proj;
  RowSet rows;
  if (query.columns.empty()) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      proj.push_back(c);
      rows.column_names.push_back(table->schema().field(c).name);
    }
  } else {
    for (const auto& name : query.columns) {
      IDEVAL_ASSIGN_OR_RETURN(size_t idx, table->schema().FieldIndex(name));
      proj.push_back(idx);
      rows.column_names.push_back(name);
    }
  }

  QueryResponse response;
  QueryWorkStats& stats = response.stats;
  const int64_t n = static_cast<int64_t>(table->num_rows());
  const int64_t offset = std::max<int64_t>(0, query.offset);
  const int64_t limit = query.limit < 0 ? n : query.limit;

  // A LIMIT/OFFSET scan with no predicates visits offset+limit tuples
  // (how a row store without a positional index pages through results);
  // with predicates it must scan until `offset+limit` matches are found.
  // With zone maps the scan walks blocks and skips any block whose
  // min/max summary is disjoint from a range conjunct — skipped blocks
  // hold no matches, so LIMIT/OFFSET match order is unaffected. Without
  // zone maps the whole table is one block and the loop degrades to the
  // plain row scan with identical accounting.
  int64_t matched = 0;
  const double out_bytes_per_row =
      static_cast<double>(proj.size()) * 24.0;  // Rough wire width.
  // Kernel path: the predicate mask is materialized one chunk at a time;
  // the consume loop below walks it for offset/limit and
  // materialization. Work counters only cover rows actually consumed —
  // when the limit lands mid-chunk the kernels evaluated the rest of the
  // chunk too (wasted compute, but identical accounting to the old
  // early-exit row loop, which the modelled time is calibrated on).
  auto scan_block = [&](int64_t begin,
                        int64_t end) -> std::optional<int64_t> {
    alignas(64) uint8_t mask[kKernelScanChunk];
    for (int64_t chunk = begin; chunk < end; chunk += kKernelScanChunk) {
      const int64_t len = std::min<int64_t>(kKernelScanChunk, end - chunk);
      preds.EvalMask(*kops_, static_cast<size_t>(chunk), len, mask);
      for (int64_t i = 0; i < len; ++i) {
        const int64_t row = chunk + i;
        ++stats.tuples_scanned;
        stats.predicates_evaluated +=
            static_cast<int64_t>(preds.num_predicates());
        if (!mask[i]) continue;
        ++matched;
        if (matched <= offset) continue;
        std::vector<Value> out;
        out.reserve(proj.size());
        for (size_t c : proj) {
          out.push_back(table->At(static_cast<size_t>(row), c));
        }
        rows.rows.push_back(std::move(out));
        if (static_cast<int64_t>(rows.rows.size()) >= limit) return row + 1;
      }
    }
    return std::nullopt;
  };
  // LIMIT 0 is a shape probe: no rows, no scan.
  if (limit > 0) {
    WalkBlocks(*table, preds, preds.PruneMaps(ZoneMapsFor(query.table)), 0,
               n, &stats, scan_block);
  }
  stats.tuples_matched = matched;
  stats.rows_output = static_cast<int64_t>(rows.rows.size());
  stats.bytes_output = out_bytes_per_row * static_cast<double>(
                                               stats.rows_output);
  response.data = std::move(rows);
  FinalizeTimes(&response);
  return response;
}

Result<QueryResponse> Engine::ExecuteHistogram(const HistogramQuery& query,
                                               MorselQueue* queue) const {
  IDEVAL_ASSIGN_OR_RETURN(TablePtr table, GetTable(query.table));
  IDEVAL_ASSIGN_OR_RETURN(
      HistogramScan scan,
      HistogramScan::Prepare(*table, ZoneMapsFor(query.table), query,
                             *kops_));
  QueryResponse response;
  QueryWorkStats& stats = response.stats;
  const int64_t n = static_cast<int64_t>(table->num_rows());
  std::vector<int64_t> counts(static_cast<size_t>(query.bins), 0);
  auto scan_block = [&](int64_t begin, int64_t end) {
    scan.ScanBlock(begin, end, counts.data(), &stats);
    return std::optional<int64_t>();
  };
  if (queue == nullptr) {
    WalkBlocks(*table, scan.preds, scan.prune_maps, 0, n, &stats,
               scan_block);
  } else {
    // Steal loop: one atomic increment claims the next unscanned morsel;
    // the loop exits when the shared queue drains. Morsel boundaries land
    // on block boundaries (see the header contract), so every block is
    // counted by exactly one participant. Page charges are per morsel,
    // not per cross-morsel run: a disk-profile scan may charge a page
    // shared by two morsels twice (morsel mode targets the in-memory
    // profile, where ChargePages is a no-op).
    for (;;) {
      const int64_t m = queue->next.fetch_add(1, std::memory_order_relaxed);
      if (m >= queue->num_morsels) break;
      ++stats.morsels_executed;
      const int64_t begin = m * queue->morsel_rows;
      WalkBlocks(*table, scan.preds, scan.prune_maps, begin,
                 std::min(n, begin + queue->morsel_rows), &stats,
                 scan_block);
    }
  }
  IDEVAL_ASSIGN_OR_RETURN(
      response.data,
      scan.Finish(std::vector<double>(counts.begin(), counts.end()), &stats));
  FinalizeTimes(&response);
  return response;
}

Result<QueryResponse> Engine::ExecuteHistogramMorsels(
    const HistogramQuery& query, MorselQueue* queue) const {
  if (queue == nullptr || queue->morsel_rows < 1) {
    return Status::InvalidArgument("morsel queue must have morsel_rows >= 1");
  }
  Result<QueryResponse> r = ExecuteHistogram(query, queue);
  if (r.ok()) RecordPruning(r->stats);
  return r;
}

Result<QueryResponse> Engine::ExecuteJoinPage(
    const JoinPageQuery& query) const {
  IDEVAL_ASSIGN_OR_RETURN(TablePtr left, GetTable(query.left_table));
  IDEVAL_ASSIGN_OR_RETURN(TablePtr right, GetTable(query.right_table));
  IDEVAL_ASSIGN_OR_RETURN(size_t left_key,
                          left->schema().FieldIndex(query.join_column));
  IDEVAL_ASSIGN_OR_RETURN(size_t right_key,
                          right->schema().FieldIndex(query.join_column));
  if (left->schema().field(left_key).type != DataType::kInt64 ||
      right->schema().field(right_key).type != DataType::kInt64) {
    return Status::InvalidArgument("join key must be int64 in both tables");
  }
  if (query.limit < 0 || query.offset < 0) {
    return Status::InvalidArgument("join page limit/offset must be >= 0");
  }

  QueryResponse response;
  QueryWorkStats& stats = response.stats;

  // Page of the left side.
  const int64_t n_left = static_cast<int64_t>(left->num_rows());
  const int64_t begin = std::min(query.offset, n_left);
  const int64_t end = std::min(query.offset + query.limit, n_left);
  stats.tuples_scanned += end > 0 ? end : 0;  // Scan-to-offset cost.
  ChargePages(*left, 0, end, &stats);

  // Build a hash table over the page keys (small side), then probe the
  // right table sequentially — the streaming-join shape of §6's Q2.
  std::unordered_map<int64_t, size_t> page_keys;
  page_keys.reserve(static_cast<size_t>(end - begin));
  const auto& left_keys = left->column(left_key).int64_data();
  for (int64_t r = begin; r < end; ++r) {
    page_keys.emplace(left_keys[static_cast<size_t>(r)],
                      static_cast<size_t>(r));
  }
  stats.hash_build_rows = end - begin;

  RowSet rows;
  for (size_t c = 0; c < left->num_columns(); ++c) {
    rows.column_names.push_back(left->schema().field(c).name);
  }
  for (size_t c = 0; c < right->num_columns(); ++c) {
    if (c == right_key) continue;  // Key appears once.
    rows.column_names.push_back(right->schema().field(c).name);
  }

  const auto& right_keys = right->column(right_key).int64_data();
  const size_t n_right = right->num_rows();
  std::vector<std::pair<size_t, size_t>> matches;  // (left row, right row).
  for (size_t r = 0; r < n_right; ++r) {
    ++stats.hash_probe_rows;
    auto it = page_keys.find(right_keys[r]);
    if (it != page_keys.end()) matches.emplace_back(it->second, r);
  }
  stats.tuples_scanned += static_cast<int64_t>(n_right);
  ChargePages(*right, 0, static_cast<int64_t>(n_right), &stats);

  // Keep left (display) order.
  std::sort(matches.begin(), matches.end());
  for (const auto& [lr, rr] : matches) {
    std::vector<Value> out;
    out.reserve(rows.column_names.size());
    for (size_t c = 0; c < left->num_columns(); ++c) out.push_back(left->At(lr, c));
    for (size_t c = 0; c < right->num_columns(); ++c) {
      if (c == right_key) continue;
      out.push_back(right->At(rr, c));
    }
    rows.rows.push_back(std::move(out));
  }
  stats.tuples_matched = static_cast<int64_t>(rows.rows.size());
  stats.rows_output = static_cast<int64_t>(rows.rows.size());
  stats.bytes_output =
      static_cast<double>(rows.rows.size() * rows.column_names.size()) * 24.0;
  response.data = std::move(rows);
  FinalizeTimes(&response);
  return response;
}

}  // namespace ideval
