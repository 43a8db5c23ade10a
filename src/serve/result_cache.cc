#include "serve/result_cache.h"

#include <algorithm>
#include <map>
#include <utility>

namespace ideval {

namespace {

/// Conjunction-preserving predicate normalization; see `CanonicalQueryKey`.
std::vector<Predicate> NormalizePredicates(
    const std::vector<Predicate>& predicates) {
  // Intersect all range conjuncts per column (AND of ranges is their
  // intersection). std::map gives a deterministic column order.
  std::map<std::string, RangePredicate> ranges;
  std::vector<Predicate> rest;
  for (const Predicate& p : predicates) {
    if (const auto* r = std::get_if<RangePredicate>(&p)) {
      auto [it, inserted] = ranges.try_emplace(r->column, *r);
      if (!inserted) {
        it->second.lo = std::max(it->second.lo, r->lo);
        it->second.hi = std::min(it->second.hi, r->hi);
      }
    } else if (const auto* in = std::get_if<StringInPredicate>(&p)) {
      StringInPredicate norm = *in;
      std::sort(norm.values.begin(), norm.values.end());
      norm.values.erase(std::unique(norm.values.begin(), norm.values.end()),
                        norm.values.end());
      rest.push_back(std::move(norm));
    } else {
      rest.push_back(p);
    }
  }
  // Canonical conjunct order: ranges by column, then the rest sorted and
  // deduplicated by value — predicate order is irrelevant under AND, so
  // equivalent reorderings collide.
  std::sort(rest.begin(), rest.end());
  rest.erase(std::unique(rest.begin(), rest.end()), rest.end());
  std::vector<Predicate> out;
  out.reserve(ranges.size() + rest.size());
  for (auto& [column, range] : ranges) out.push_back(range);
  for (Predicate& p : rest) out.push_back(std::move(p));
  return out;
}

int64_t ValueBytes(const Value& v) {
  // Variant header plus string payload; numerics fit inline.
  return v.is_string() ? 32 + static_cast<int64_t>(v.str().size()) : 16;
}

}  // namespace

std::string CanonicalQueryKey(const Query& query) {
  Query norm = query;
  if (auto* s = std::get_if<SelectQuery>(&norm)) {
    s->predicates = NormalizePredicates(s->predicates);
    s->offset = std::max<int64_t>(0, s->offset);
    s->limit = std::max<int64_t>(-1, s->limit);
  } else if (auto* h = std::get_if<HistogramQuery>(&norm)) {
    h->predicates = NormalizePredicates(h->predicates);
  }
  return QueryKey(norm);
}

int64_t ApproxResponseBytes(const QueryResponse& response) {
  int64_t bytes = 256;  // Response struct, stats, map/list node headroom.
  if (const auto* rows = std::get_if<RowSet>(&response.data)) {
    for (const auto& name : rows->column_names) {
      bytes += 32 + static_cast<int64_t>(name.size());
    }
    for (const auto& row : rows->rows) {
      bytes += 24;  // Row vector header.
      for (const auto& v : row) bytes += ValueBytes(v);
    }
  } else {
    const auto& hist = std::get<FixedHistogram>(response.data);
    bytes += 64 + static_cast<int64_t>(hist.num_bins()) * 8;
  }
  return bytes;
}

const char* CacheOutcomeToString(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kCoalesced:
      return "coalesced";
  }
  return "unknown";
}

namespace {

std::vector<std::string> QueryTables(const Query& query) {
  if (const auto* s = std::get_if<SelectQuery>(&query)) return {s->table};
  if (const auto* h = std::get_if<HistogramQuery>(&query)) return {h->table};
  const auto& j = std::get<JoinPageQuery>(query);
  return {j.left_table, j.right_table};
}

}  // namespace

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(options) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  if (options_.byte_budget < 0) options_.byte_budget = 0;
  shard_budget_ = options_.byte_budget / options_.num_shards;
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  const size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

void ResultCache::Insert(Shard* shard, const std::string& key,
                         const Query& query, const QueryResponse& response) {
  const int64_t bytes = ApproxResponseBytes(response) +
                        static_cast<int64_t>(key.size());
  if (bytes > shard_budget_) return;  // Would evict everything; skip.
  while (shard->bytes + bytes > shard_budget_ && !shard->lru.empty()) {
    const std::string& victim = shard->lru.back();
    auto it = shard->entries.find(victim);
    shard->bytes -= it->second.bytes;
    shard->entries.erase(it);
    shard->lru.pop_back();
    ++shard->stats.evictions;
  }
  Entry entry;
  entry.response = response;
  entry.bytes = bytes;
  entry.tables = QueryTables(query);
  shard->lru.push_front(key);
  entry.lru_it = shard->lru.begin();
  shard->bytes += bytes;
  shard->entries.emplace(key, std::move(entry));
}

Result<ResultCache::Execution> ResultCache::Execute(const Query& query,
                                                    const Backend& backend) {
  return Execute(
      query,
      [&backend](const Query& q, const TraceContext&, uint64_t) {
        return backend(q);
      },
      TraceContext(), /*parent_span_id=*/0);
}

Result<ResultCache::Execution> ResultCache::Execute(
    const Query& query, const TracedBackend& backend,
    const TraceContext& trace, uint64_t parent_span_id) {
  // Covers the whole lookup: a coalesced caller's span is its wait on the
  // leader's flight; a hit's span is a map probe. Detail carries the
  // outcome (1 hit / 2 miss / 3 coalesced / 0 backend error).
  Span lookup(trace, SpanKind::kCacheLookup, parent_span_id);
  const std::string key = CanonicalQueryKey(query);
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    auto hit = shard.entries.find(key);
    if (hit != shard.entries.end()) {
      ++shard.stats.hits;
      // LRU touch: move to front.
      shard.lru.splice(shard.lru.begin(), shard.lru, hit->second.lru_it);
      Execution out;
      out.response = hit->second.response;
      out.outcome = CacheOutcome::kHit;
      lookup.SetDetail(1);
      return out;
    }
    auto flying = shard.flights.find(key);
    if (flying == shard.flights.end()) break;  // We become the leader.
    // Single flight: wait for the concurrent identical execution. The
    // shared cv wakes on any flight completing in this shard, so re-check.
    std::shared_ptr<Flight> flight = flying->second;
    shard.cv.wait(lock, [&flight] { return flight->done; });
    ++shard.stats.coalesced;
    if (!flight->ok) return flight->error;
    Execution out;
    out.response = flight->response;
    out.outcome = CacheOutcome::kCoalesced;
    lookup.SetDetail(3);
    return out;
  }

  auto flight = std::make_shared<Flight>();
  shard.flights.emplace(key, flight);
  ++shard.stats.leader_executions;
  const uint64_t epoch = shard.epoch;
  lock.unlock();

  // The backend runs outside every cache lock; it may block (e.g. on a
  // shard pool) without stalling other keys of this shard.
  Span exec(trace, SpanKind::kExecute, lookup.id());
  Result<QueryResponse> r = backend(query, trace, exec.id());
  if (r.ok()) {
    exec.SetAttrs(r->stats.tuples_scanned, r->stats.blocks_scanned,
                  r->stats.blocks_pruned);
  }
  exec.End();

  lock.lock();
  ++shard.stats.misses;
  flight->done = true;
  if (r.ok()) {
    flight->ok = true;
    flight->response = *r;
    // An invalidation during the flight means this result may describe a
    // table set that no longer exists; serve the waiters (they asked
    // before the invalidation) but do not install the entry.
    if (shard.epoch == epoch) Insert(&shard, key, query, *r);
  } else {
    flight->error = r.status();
  }
  shard.flights.erase(key);
  shard.cv.notify_all();
  if (!r.ok()) return r.status();
  Execution out;
  out.response = std::move(*r);
  out.outcome = CacheOutcome::kMiss;
  lookup.SetDetail(2);
  return out;
}

std::optional<QueryResponse> ResultCache::Lookup(const Query& query) {
  const std::string key = CanonicalQueryKey(query);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto hit = shard.entries.find(key);
  if (hit == shard.entries.end()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, hit->second.lru_it);
  return hit->second.response;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stats.invalidations +=
        static_cast<int64_t>(shard->entries.size());
    shard->entries.clear();
    shard->lru.clear();
    shard->bytes = 0;
    ++shard->epoch;
  }
}

void ResultCache::InvalidateTable(const std::string& table) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->entries.begin(); it != shard->entries.end();) {
      const auto& tables = it->second.tables;
      if (std::find(tables.begin(), tables.end(), table) == tables.end()) {
        ++it;
        continue;
      }
      shard->bytes -= it->second.bytes;
      shard->lru.erase(it->second.lru_it);
      it = shard->entries.erase(it);
      ++shard->stats.invalidations;
    }
    ++shard->epoch;
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.coalesced += shard->stats.coalesced;
    total.leader_executions += shard->stats.leader_executions;
    total.evictions += shard->stats.evictions;
    total.invalidations += shard->stats.invalidations;
    total.entries += static_cast<int64_t>(shard->entries.size());
    total.bytes += shard->bytes;
  }
  return total;
}

}  // namespace ideval
