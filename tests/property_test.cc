/// Property-based tests: randomized sweeps checking invariants that must
/// hold for *every* input, with brute-force reference implementations
/// where applicable.

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "engine/engine.h"
#include "engine/progressive.h"
#include "engine/sharded_engine.h"
#include "opt/session_cache.h"
#include "opt/throttle.h"
#include "serve/result_cache.h"
#include "sim/query_scheduler.h"

namespace ideval {
namespace {

/// Builds a random numeric table with `rows` rows and two columns.
TablePtr RandomTable(Rng* rng, int64_t rows) {
  Schema schema({{"a", DataType::kDouble}, {"b", DataType::kInt64}});
  TableBuilder builder("rand", schema);
  for (int64_t i = 0; i < rows; ++i) {
    builder.MustAppendRow({Value(rng->Uniform(-100.0, 100.0)),
                           Value(rng->UniformInt(-50, 50))});
  }
  return std::move(builder).Finish().ValueOrDie();
}

// ---------------------- Engine vs brute-force oracle ----------------------

class EngineOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineOracleTest, HistogramMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 11);
  TablePtr table = RandomTable(&rng, rng.UniformInt(50, 800));
  EngineOptions eopts;
  eopts.profile = rng.Bernoulli(0.5) ? EngineProfile::kDiskRowStore
                                     : EngineProfile::kInMemoryColumnStore;
  Engine engine(eopts);
  ASSERT_TRUE(engine.RegisterTable(table).ok());

  HistogramQuery q;
  q.table = "rand";
  q.bin_column = "a";
  q.bin_lo = -100.0;
  q.bin_hi = 100.0;
  q.bins = rng.UniformInt(1, 30);
  const double lo_a = rng.Uniform(-120.0, 80.0);
  const double hi_a = lo_a + rng.Uniform(0.0, 150.0);
  const double lo_b = static_cast<double>(rng.UniformInt(-60, 40));
  const double hi_b = lo_b + static_cast<double>(rng.UniformInt(0, 80));
  q.predicates = {RangePredicate{"a", lo_a, hi_a},
                  RangePredicate{"b", lo_b, hi_b}};

  auto response = engine.Execute(Query(q));
  ASSERT_TRUE(response.ok());
  const auto& hist = std::get<FixedHistogram>(response->data);

  // Brute force.
  auto expected =
      FixedHistogram::Make(q.bin_lo, q.bin_hi,
                           static_cast<size_t>(q.bins))
          .ValueOrDie();
  const auto& a = (*table->ColumnByName("a"))->double_data();
  const auto& b = (*table->ColumnByName("b"))->int64_data();
  int64_t matched = 0;
  for (size_t i = 0; i < table->num_rows(); ++i) {
    if (a[i] < lo_a || a[i] > hi_a) continue;
    const double bv = static_cast<double>(b[i]);
    if (bv < lo_b || bv > hi_b) continue;
    expected.Add(a[i]);
    ++matched;
  }
  EXPECT_EQ(hist, expected);
  EXPECT_EQ(response->stats.tuples_matched, matched);
  EXPECT_EQ(response->stats.tuples_scanned,
            static_cast<int64_t>(table->num_rows()));
}

TEST_P(EngineOracleTest, PaginationReconstructsTable) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7877 + 5);
  TablePtr table = RandomTable(&rng, rng.UniformInt(20, 300));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());

  const int64_t page = rng.UniformInt(1, 50);
  std::vector<double> collected;
  for (int64_t offset = 0;; offset += page) {
    SelectQuery q;
    q.table = "rand";
    q.columns = {"a"};
    q.limit = page;
    q.offset = offset;
    auto r = engine.Execute(Query(q));
    ASSERT_TRUE(r.ok());
    const auto& rows = std::get<RowSet>(r->data).rows;
    for (const auto& row : rows) collected.push_back(row[0].dbl());
    if (static_cast<int64_t>(rows.size()) < page) break;
  }
  const auto& expected = (*table->ColumnByName("a"))->double_data();
  ASSERT_EQ(collected.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(collected[i], expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, EngineOracleTest,
                         ::testing::Range(0, 20));

// ----------------------- Buffer pool vs reference -----------------------

class BufferPoolOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(BufferPoolOracleTest, MatchesReferenceLru) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3571 + 9);
  const int64_t capacity = rng.UniformInt(1, 8);
  BufferPool pool(capacity);
  // Reference: vector-based LRU.
  std::vector<int64_t> reference;  // Front = most recent.
  int64_t ref_hits = 0;
  for (int step = 0; step < 500; ++step) {
    const int64_t pageno = rng.UniformInt(0, 12);
    const bool hit = pool.Access(PageId{"t", pageno});
    auto it = std::find(reference.begin(), reference.end(), pageno);
    const bool ref_hit = it != reference.end();
    if (ref_hit) {
      reference.erase(it);
      ++ref_hits;
    } else if (static_cast<int64_t>(reference.size()) >= capacity) {
      reference.pop_back();
    }
    reference.insert(reference.begin(), pageno);
    ASSERT_EQ(hit, ref_hit) << "step " << step;
  }
  EXPECT_EQ(pool.hits(), ref_hits);
  EXPECT_LE(pool.resident_pages(), capacity);
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, BufferPoolOracleTest,
                         ::testing::Range(0, 10));

// ------------------------- Scheduler invariants -------------------------

class SchedulerInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerInvariantTest, TimelinesAreCausal) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 9973 + 3);
  TablePtr table = RandomTable(&rng, 5000);
  EngineOptions eopts;
  eopts.profile = rng.Bernoulli(0.5) ? EngineProfile::kDiskRowStore
                                     : EngineProfile::kInMemoryColumnStore;
  Engine engine(eopts);
  ASSERT_TRUE(engine.RegisterTable(table).ok());

  HistogramQuery hq;
  hq.table = "rand";
  hq.bin_column = "a";
  hq.bin_lo = -100.0;
  hq.bin_hi = 100.0;
  hq.bins = 10;

  std::vector<QueryGroup> groups;
  SimTime t;
  const int n = static_cast<int>(rng.UniformInt(1, 40));
  for (int i = 0; i < n; ++i) {
    t += Duration::MillisF(rng.Uniform(0.0, 40.0));
    QueryGroup g;
    g.issue_time = t;
    const int queries = static_cast<int>(rng.UniformInt(1, 3));
    for (int k = 0; k < queries; ++k) g.queries.push_back(hq);
    groups.push_back(g);
  }

  SchedulerOptions sopts;
  sopts.policy = rng.Bernoulli(0.5) ? SchedulingPolicy::kFifo
                                    : SchedulingPolicy::kSkipStale;
  sopts.num_connections = static_cast<int>(rng.UniformInt(1, 4));
  QueryScheduler scheduler(&engine, sopts);
  auto run = scheduler.Run(groups);
  ASSERT_TRUE(run.ok());

  // Conservation: every group accounted for.
  EXPECT_EQ(run->groups_executed + run->groups_skipped,
            run->groups_submitted);
  std::map<int64_t, int> group_sizes;
  for (const auto& tl : run->timelines) {
    ++group_sizes[tl.group_id];
    if (tl.skipped) {
      EXPECT_FALSE(tl.data.has_value());
      continue;
    }
    // Causality chain.
    EXPECT_GE(tl.backend_arrival, tl.issue_time);
    EXPECT_GE(tl.exec_start, tl.backend_arrival);
    EXPECT_GE(tl.exec_end, tl.exec_start);
    EXPECT_GE(tl.client_receive, tl.exec_end);
    EXPECT_GE(tl.render_end, tl.client_receive);
    // Durations are nonnegative and consistent.
    EXPECT_GE(tl.scheduling_latency, Duration::Zero());
    EXPECT_EQ(tl.exec_start - tl.backend_arrival, tl.scheduling_latency);
    EXPECT_GE(tl.PerceivedLatency(), Duration::Zero());
    ASSERT_TRUE(tl.data.has_value());
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(group_sizes[static_cast<int64_t>(i)],
              static_cast<int>(groups[i].queries.size()))
        << "group " << i;
  }
  // Backend serves groups serially: executed groups' exec windows do not
  // interleave across groups.
  SimTime prev_group_end;
  int64_t prev_group = -1;
  for (const auto& tl : run->timelines) {
    if (tl.skipped) continue;
    if (tl.group_id != prev_group) {
      EXPECT_GE(tl.exec_start, prev_group_end) << "group " << tl.group_id;
      prev_group = tl.group_id;
    }
    prev_group_end = std::max(prev_group_end, tl.exec_end);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSessions, SchedulerInvariantTest,
                         ::testing::Range(0, 15));

// -------------------------- Throttler property --------------------------

class ThrottlerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ThrottlerPropertyTest, OutputRespectsMinInterval) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 17);
  const Duration min_interval = Duration::MillisF(rng.Uniform(5.0, 200.0));
  QifThrottler throttler(min_interval);
  SimTime t;
  std::vector<SimTime> admitted;
  for (int i = 0; i < 300; ++i) {
    t += Duration::MillisF(rng.Uniform(0.1, 60.0));
    if (throttler.Admit(t)) admitted.push_back(t);
  }
  ASSERT_FALSE(admitted.empty());
  for (size_t i = 1; i < admitted.size(); ++i) {
    EXPECT_GE(admitted[i] - admitted[i - 1], min_interval);
  }
}

TEST_P(ThrottlerPropertyTest, DebounceOutputsDelayedSubset) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 191 + 23);
  const Duration quiet = Duration::MillisF(rng.Uniform(10.0, 150.0));
  std::vector<SimTime> times;
  SimTime t;
  for (int i = 0; i < 100; ++i) {
    t += Duration::MillisF(rng.Uniform(1.0, 120.0));
    times.push_back(t);
  }
  const auto fired = DebounceEventTimes(times, quiet);
  ASSERT_FALSE(fired.empty());
  EXPECT_LE(fired.size(), times.size());
  for (size_t i = 0; i < fired.size(); ++i) {
    // Every fired event references a real source and fires exactly one
    // quiet period after it.
    ASSERT_LT(fired[i].source_index, times.size());
    EXPECT_EQ(fired[i].fire_time, times[fired[i].source_index] + quiet);
    if (i > 0) {
      EXPECT_GT(fired[i].source_index, fired[i - 1].source_index);
    }
  }
  // The final event always fires.
  EXPECT_EQ(fired.back().source_index, times.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, ThrottlerPropertyTest,
                         ::testing::Range(0, 10));

// ----------------------- MergeSessions property -----------------------

class MergeSessionsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeSessionsPropertyTest, MergeIsStableAndOrderPreserving) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 31);
  // Timestamps drawn from a handful of values so equal-time collisions
  // across users are the common case, not the exception.
  const int num_users = rng.UniformInt(1, 6);
  std::vector<std::vector<QueryGroup>> sessions(
      static_cast<size_t>(num_users));
  size_t total = 0;
  for (int u = 0; u < num_users; ++u) {
    const int n = rng.UniformInt(0, 20);
    SimTime t;
    for (int k = 0; k < n; ++k) {
      t += Duration::Millis(10 * rng.UniformInt(0, 3));  // Often zero.
      QueryGroup g;
      g.issue_time = t;
      // Tag the group with (user, per-user sequence) so the merged
      // stream can be audited: limit = user, offset = sequence.
      SelectQuery tag;
      tag.table = "tagged";
      tag.limit = u;
      tag.offset = k;
      g.queries.push_back(tag);
      sessions[static_cast<size_t>(u)].push_back(std::move(g));
      ++total;
    }
  }

  const auto merged = MergeSessions(sessions);
  ASSERT_EQ(merged.size(), total);

  auto tag_of = [](const QueryGroup& g) {
    const auto& s = std::get<SelectQuery>(g.queries.at(0));
    return std::pair<int64_t, int64_t>(s.limit, s.offset);
  };

  std::map<int64_t, int64_t> next_seq;  // Per-user expected sequence.
  for (size_t i = 0; i < merged.size(); ++i) {
    const auto [user, seq] = tag_of(merged[i]);
    // Each user's internal order survives the merge exactly.
    EXPECT_EQ(seq, next_seq[user]) << "user " << user << " at " << i;
    next_seq[user] = seq + 1;
    if (i > 0) {
      EXPECT_GE(merged[i].issue_time, merged[i - 1].issue_time);
      // Stability: within an equal-timestamp run the concatenation
      // order (by user, then per-user sequence) is untouched.
      if (merged[i].issue_time == merged[i - 1].issue_time) {
        EXPECT_GT(tag_of(merged[i]), tag_of(merged[i - 1])) << "at " << i;
      }
    }
  }
  // Nothing lost, nothing duplicated.
  for (int u = 0; u < num_users; ++u) {
    EXPECT_EQ(next_seq[u],
              static_cast<int64_t>(sessions[static_cast<size_t>(u)].size()));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSessionSets, MergeSessionsPropertyTest,
                         ::testing::Range(0, 20));

// ---------------------- Sharded engine vs unsharded ----------------------

/// The scatter-merge contract: for any table, shard count, and query, the
/// merged K-shard response is indistinguishable from an unsharded
/// execution — bitwise for exact aggregates (counts) and row sets, within
/// one bin width for bucketed-summary quantiles.
class ShardedOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedOracleTest, HistogramMergesBitwiseEqual) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2711 + 13);
  TablePtr table = RandomTable(&rng, rng.UniformInt(40, 900));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());
  ShardedEngineOptions shopts;
  shopts.num_shards = static_cast<int>(rng.UniformInt(2, 6));
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(table).ok());

  HistogramQuery q;
  q.table = "rand";
  q.bin_column = "a";
  q.bin_lo = -100.0;
  q.bin_hi = 100.0;
  q.bins = rng.UniformInt(1, 30);
  const double lo_a = rng.Uniform(-120.0, 80.0);
  q.predicates = {RangePredicate{"a", lo_a, lo_a + rng.Uniform(0.0, 180.0)}};

  auto one = engine.Execute(Query(q));
  auto many = sharded->Execute(Query(q));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  const auto& h1 = std::get<FixedHistogram>(one->data);
  const auto& hk = std::get<FixedHistogram>(many->data);
  EXPECT_EQ(hk, h1);  // Defaulted operator==: bitwise bin counts.
  // Every shard scans its full chunk, so summed work equals one scan.
  EXPECT_EQ(many->stats.tuples_scanned, one->stats.tuples_scanned);
  EXPECT_EQ(many->stats.tuples_matched, one->stats.tuples_matched);

  // Bucketed-summary quantiles off the merged histogram are within one
  // bin width of the exact sample quantile (values clamped into the
  // histogram range, matching FixedHistogram::Add's edge-bin semantics).
  if (hk.total() > 0) {
    std::vector<double> matched;
    const auto& a = (*table->ColumnByName("a"))->double_data();
    const auto& pred = std::get<RangePredicate>(q.predicates[0]);
    for (double v : a) {
      if (v < pred.lo || v > pred.hi) continue;
      matched.push_back(std::clamp(v, q.bin_lo, q.bin_hi));
    }
    std::sort(matched.begin(), matched.end());
    const double quantile = rng.Uniform(0.05, 0.95);
    auto estimate = HistogramQuantile(hk, quantile);
    ASSERT_TRUE(estimate.ok());
    const size_t n = matched.size();
    const size_t idx = std::min(
        n - 1, static_cast<size_t>(quantile * static_cast<double>(n)));
    EXPECT_NEAR(*estimate, matched[idx], hk.bin_width() + 1e-9);
  }
}

TEST_P(ShardedOracleTest, MorselExecutionMatchesRangePartition) {
  // Morsel-driven execution (docs/kernels.md) claims morsels from a
  // shared atomic queue instead of giving each worker one fixed range.
  // Claim order is nondeterministic, so this is the merge-commutativity
  // property: the merged histogram must be bitwise equal to both the
  // range-partitioned sharded run and the unsharded run, with identical
  // summed work counters, for any seed. With zone maps on, the summed
  // block counters must equal one `Execute`'s too: every block is
  // scanned or pruned by exactly one participant.
  Rng rng(static_cast<uint64_t>(GetParam()) * 6553 + 7);
  TablePtr table = RandomTable(&rng, rng.UniformInt(40, 2000));
  const int num_shards = static_cast<int>(rng.UniformInt(2, 6));
  HistogramQuery q;
  q.table = "rand";
  q.bin_column = "a";
  q.bin_lo = -100.0;
  q.bin_hi = 100.0;
  q.bins = rng.UniformInt(1, 30);
  const double lo_a = rng.Uniform(-120.0, 80.0);
  q.predicates = {RangePredicate{"a", lo_a, lo_a + rng.Uniform(0.0, 180.0)}};
  // A window at the top edge of the value range, which zone maps over
  // small blocks of uniform values can prune.
  HistogramQuery edge = q;
  edge.predicates = {RangePredicate{"a", rng.Uniform(90.0, 99.0), 100.0}};

  for (bool zone_maps : {false, true}) {
    SCOPED_TRACE(zone_maps ? "zone maps on" : "zone maps off");
    EngineOptions eopts;
    eopts.enable_zone_maps = zone_maps;
    // Small blocks, so zone maps summarize even small random tables in
    // several blocks.
    eopts.zone_map_block_rows = 8;
    Engine engine(eopts);
    ASSERT_TRUE(engine.RegisterTable(table).ok());

    ShardedEngineOptions range_opts;
    range_opts.num_shards = num_shards;
    range_opts.engine_options = eopts;
    auto by_range = ShardedEngine::Create(range_opts).ValueOrDie();
    ASSERT_TRUE(by_range->PartitionTable(table).ok());

    ShardedEngineOptions morsel_opts = range_opts;
    morsel_opts.morsel_execution = true;
    // Tiny morsels (one row, or one block with zone maps on) so every
    // worker claims several and the claims really interleave.
    morsel_opts.morsel_rows = 1;
    auto by_morsel = ShardedEngine::Create(morsel_opts).ValueOrDie();
    ASSERT_TRUE(by_morsel->PartitionTable(table).ok());

    for (const HistogramQuery* query : {&q, &edge}) {
      auto one = engine.Execute(Query(*query));
      auto ranged = by_range->Execute(Query(*query));
      auto morseled = by_morsel->Execute(Query(*query));
      ASSERT_TRUE(one.ok());
      ASSERT_TRUE(ranged.ok());
      ASSERT_TRUE(morseled.ok());
      const auto& h1 = std::get<FixedHistogram>(one->data);
      const auto& hr = std::get<FixedHistogram>(ranged->data);
      const auto& hm = std::get<FixedHistogram>(morseled->data);
      EXPECT_EQ(hm, h1);  // Bitwise: int64 bin counts merge exactly.
      EXPECT_EQ(hm, hr);
      EXPECT_EQ(morseled->stats.tuples_scanned, one->stats.tuples_scanned);
      EXPECT_EQ(morseled->stats.tuples_matched, one->stats.tuples_matched);
      EXPECT_EQ(morseled->stats.blocks_scanned, one->stats.blocks_scanned);
      EXPECT_EQ(morseled->stats.blocks_pruned, one->stats.blocks_pruned);
      // The steal loop claimed every morsel exactly once.
      EXPECT_GT(morseled->stats.morsels_executed, 0);
      EXPECT_EQ(ranged->stats.morsels_executed, 0);

      // A morsel plan is single-use (its queue drains), but the engine
      // must rebuild a fresh queue per Execute: a second run is identical.
      auto again = by_morsel->Execute(Query(*query));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(std::get<FixedHistogram>(again->data), hm);
      EXPECT_EQ(again->stats.morsels_executed,
                morseled->stats.morsels_executed);
      EXPECT_EQ(again->stats.blocks_pruned, morseled->stats.blocks_pruned);
      if (zone_maps && query == &edge) {
        EXPECT_GT(one->stats.blocks_pruned, 0);  // Pruning really fired.
      }
    }
  }
}

TEST_P(ShardedOracleTest, SelectPageMatchesUnsharded) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3917 + 29);
  TablePtr table = RandomTable(&rng, rng.UniformInt(20, 400));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());
  ShardedEngineOptions shopts;
  shopts.num_shards = static_cast<int>(rng.UniformInt(2, 6));
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(table).ok());

  SelectQuery q;
  q.table = "rand";
  q.columns = {"a", "b"};
  const double lo = rng.Uniform(-120.0, 80.0);
  q.predicates = {RangePredicate{"a", lo, lo + rng.Uniform(0.0, 180.0)}};
  q.offset = rng.UniformInt(0, 60);
  q.limit = rng.Bernoulli(0.2) ? -1 : rng.UniformInt(0, 80);

  auto one = engine.Execute(Query(q));
  auto many = sharded->Execute(Query(q));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  const auto& r1 = std::get<RowSet>(one->data);
  const auto& rk = std::get<RowSet>(many->data);
  EXPECT_EQ(rk.column_names, r1.column_names);
  ASSERT_EQ(rk.rows.size(), r1.rows.size());
  for (size_t i = 0; i < r1.rows.size(); ++i) {
    EXPECT_EQ(rk.rows[i], r1.rows[i]) << "row " << i;
  }
}

TEST_P(ShardedOracleTest, JoinPageMatchesUnsharded) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 5741 + 41);
  // Left: paged fact table with unique ids in shuffled order (the §6 Q2
  // shape — the engine's join dedups repeated page keys, so uniqueness is
  // part of the workload contract). Right: replicated probe side.
  Schema left_schema({{"a", DataType::kDouble}, {"b", DataType::kInt64}});
  TableBuilder lb("fact", left_schema);
  const int64_t left_rows = rng.UniformInt(20, 300);
  std::vector<int64_t> ids(static_cast<size_t>(left_rows));
  for (int64_t i = 0; i < left_rows; ++i) ids[static_cast<size_t>(i)] = i;
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1],
              ids[static_cast<size_t>(rng.UniformInt(0,
                                                     static_cast<int64_t>(i) -
                                                         1))]);
  }
  for (int64_t i = 0; i < left_rows; ++i) {
    lb.MustAppendRow({Value(rng.Uniform(-10.0, 10.0)),
                      Value(ids[static_cast<size_t>(i)])});
  }
  TablePtr left = std::move(lb).Finish().ValueOrDie();
  Schema right_schema({{"b", DataType::kInt64}, {"c", DataType::kDouble}});
  TableBuilder rb("dim", right_schema);
  for (int64_t key = 0; key < left_rows; ++key) {
    if (rng.Bernoulli(0.8)) {
      rb.MustAppendRow({Value(key), Value(static_cast<double>(key) * 1.5)});
    }
  }
  TablePtr right = std::move(rb).Finish().ValueOrDie();

  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(left).ok());
  ASSERT_TRUE(engine.RegisterTable(right).ok());
  ShardedEngineOptions shopts;
  shopts.num_shards = static_cast<int>(rng.UniformInt(2, 6));
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(left).ok());
  ASSERT_TRUE(sharded->ReplicateTable(right).ok());

  JoinPageQuery q;
  q.left_table = "fact";
  q.right_table = "dim";
  q.join_column = "b";
  q.offset = rng.UniformInt(0, left_rows + 10);  // Sometimes past the end.
  q.limit = rng.UniformInt(0, 120);

  auto one = engine.Execute(Query(q));
  auto many = sharded->Execute(Query(q));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  const auto& r1 = std::get<RowSet>(one->data);
  const auto& rk = std::get<RowSet>(many->data);
  EXPECT_EQ(rk.column_names, r1.column_names);
  ASSERT_EQ(rk.rows.size(), r1.rows.size());
  for (size_t i = 0; i < r1.rows.size(); ++i) {
    EXPECT_EQ(rk.rows[i], r1.rows[i]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, ShardedOracleTest,
                         ::testing::Range(0, 20));

// ---------------------- Zone-map pruning vs unpruned ----------------------

/// The pruning contract: for any table, block size, and query, a zone-map
/// -pruned scan returns bitwise-identical `QueryResultData` to the
/// unpruned scan — pruned blocks contain no matches by construction, so
/// only the work counters may differ.
class ZoneMapOracleTest : public ::testing::TestWithParam<int> {};

/// A table whose `a` column is sorted: the clustered layout where most
/// blocks are prunable under a narrow range predicate.
TablePtr SortedTable(Rng* rng, int64_t rows) {
  std::vector<double> a(static_cast<size_t>(rows));
  for (double& v : a) v = rng->Uniform(-100.0, 100.0);
  std::sort(a.begin(), a.end());
  Schema schema({{"a", DataType::kDouble}, {"b", DataType::kInt64}});
  TableBuilder builder("rand", schema);
  for (double v : a) {
    builder.MustAppendRow({Value(v), Value(rng->UniformInt(-50, 50))});
  }
  return std::move(builder).Finish().ValueOrDie();
}

TEST_P(ZoneMapOracleTest, PrunedResultsMatchUnpruned) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 8513 + 19);
  const int64_t rows = rng.UniformInt(50, 900);
  TablePtr table = rng.Bernoulli(0.5) ? SortedTable(&rng, rows)
                                      : RandomTable(&rng, rows);
  EngineOptions plain;
  plain.profile = rng.Bernoulli(0.5) ? EngineProfile::kDiskRowStore
                                     : EngineProfile::kInMemoryColumnStore;
  EngineOptions pruned = plain;
  pruned.enable_zone_maps = true;
  // Tiny blocks so every run exercises many block boundaries.
  pruned.zone_map_block_rows = rng.UniformInt(1, 64);
  Engine base(plain);
  Engine zoned(pruned);
  ASSERT_TRUE(base.RegisterTable(table).ok());
  ASSERT_TRUE(zoned.RegisterTable(table).ok());

  for (int trial = 0; trial < 8; ++trial) {
    const double lo = rng.Uniform(-120.0, 100.0);
    const double hi = lo + rng.Uniform(0.0, 60.0);  // Often narrow.
    Query query;
    if (rng.Bernoulli(0.5)) {
      HistogramQuery q;
      q.table = "rand";
      q.bin_column = "a";
      q.bin_lo = -100.0;
      q.bin_hi = 100.0;
      q.bins = rng.UniformInt(1, 30);
      q.predicates = {RangePredicate{"a", lo, hi}};
      query = q;
    } else {
      SelectQuery q;
      q.table = "rand";
      q.columns = {"a", "b"};
      q.predicates = {RangePredicate{"a", lo, hi}};
      q.offset = rng.UniformInt(0, 40);
      q.limit = rng.Bernoulli(0.2) ? -1 : rng.UniformInt(0, 100);
      query = q;
    }
    auto r1 = base.Execute(query);
    auto r2 = zoned.Execute(query);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2->data, r1->data) << "trial " << trial;
    EXPECT_EQ(r2->stats.tuples_matched, r1->stats.tuples_matched);
    // The unpruned engine never counts blocks; the pruned one never
    // scans a tuple the oracle did not.
    EXPECT_EQ(r1->stats.blocks_pruned, 0);
    EXPECT_LE(r2->stats.tuples_scanned, r1->stats.tuples_scanned);
  }
  // The engine-lifetime totals reconcile with what the scans reported.
  const ScanPruneTotals totals = zoned.PruneTotals();
  EXPECT_GE(totals.blocks_scanned, 0);
  zoned.ClearCaches();
  EXPECT_EQ(zoned.PruneTotals().blocks_scanned, 0);
  EXPECT_EQ(zoned.PruneTotals().blocks_pruned, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, ZoneMapOracleTest,
                         ::testing::Range(0, 20));

// ---------------------- Result cache vs uncached ----------------------

/// The cache contract: routing any query stream through a `ResultCache`
/// returns the same `QueryResultData` the backend would have produced,
/// and the outcome counters reconcile with the number of lookups.
class ResultCachePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ResultCachePropertyTest, CachedResultsMatchUncached) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 4099 + 37);
  TablePtr table = RandomTable(&rng, rng.UniformInt(50, 500));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());

  ResultCacheOptions copts;
  copts.num_shards = static_cast<int>(rng.UniformInt(1, 8));
  ResultCache cache(copts);
  const ResultCache::Backend backend = [&engine](const Query& q) {
    return engine.Execute(q);
  };

  // A small query pool replayed with repetition — the crossfilter regime
  // where identical interactions recur.
  std::vector<Query> pool;
  for (int i = 0; i < 6; ++i) {
    HistogramQuery q;
    q.table = "rand";
    q.bin_column = "a";
    q.bin_lo = -100.0;
    q.bin_hi = 100.0;
    q.bins = rng.UniformInt(1, 20);
    const double lo = rng.Uniform(-120.0, 80.0);
    q.predicates = {RangePredicate{"a", lo, lo + rng.Uniform(0.0, 150.0)},
                    RangePredicate{"b", -20.0, 30.0}};
    pool.push_back(q);
  }
  const int lookups = 60;
  for (int i = 0; i < lookups; ++i) {
    Query q = pool[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(pool.size()) - 1))];
    if (rng.Bernoulli(0.3)) {
      // Equivalent-but-rewritten form: reversed conjuncts plus a
      // redundant duplicate; must hit the same canonical key.
      auto& h = std::get<HistogramQuery>(q);
      std::reverse(h.predicates.begin(), h.predicates.end());
      h.predicates.push_back(h.predicates.front());
    }
    auto cached = cache.Execute(q, backend);
    auto direct = engine.Execute(q);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(cached->response.data, direct->data) << "lookup " << i;
  }

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.Lookups(), lookups);
  EXPECT_EQ(stats.coalesced, 0);  // Single-threaded: no concurrent flights.
  // Six distinct canonical keys; everything after the first encounter of
  // each must hit (the equivalent rewrites included).
  EXPECT_EQ(stats.misses, static_cast<int64_t>(pool.size()));
  EXPECT_EQ(stats.hits, lookups - static_cast<int64_t>(pool.size()));

  // Invalidation empties the cache and the next lookups miss again.
  cache.InvalidateTable("rand");
  EXPECT_EQ(cache.Stats().entries, 0);
  auto again = cache.Execute(pool[0], backend);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outcome, CacheOutcome::kMiss);
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, ResultCachePropertyTest,
                         ::testing::Range(0, 15));

TEST(QueryKeyTest, BoundsPastTheSixthDigitKeyApart) {
  // Two histograms whose filter bounds differ only past the sixth
  // significant digit print alike, but must key apart: one matches no
  // row, the other two.
  Schema schema({{"v", DataType::kDouble}});
  TableBuilder builder("near", schema);
  for (double v : {0.1234562, 0.1234563, 0.5}) {
    builder.MustAppendRow({Value(v)});
  }
  Engine engine(EngineOptions{});
  ASSERT_TRUE(
      engine.RegisterTable(std::move(builder).Finish().ValueOrDie()).ok());
  HistogramQuery lo;
  lo.table = "near";
  lo.bin_column = "v";
  lo.bin_lo = 0.0;
  lo.bin_hi = 1.0;
  lo.bins = 4;
  lo.predicates = {RangePredicate{"v", 0.0, 0.1234561}};
  HistogramQuery hi = lo;
  hi.predicates = {RangePredicate{"v", 0.0, 0.1234564}};
  ASSERT_EQ(QueryToString(lo), QueryToString(hi));  // The old key's view.
  EXPECT_NE(QueryKey(lo), QueryKey(hi));
  EXPECT_NE(CanonicalQueryKey(lo), CanonicalQueryKey(hi));
  HistogramQuery edge = lo;
  edge.bin_hi = 1.0000001;
  EXPECT_NE(CanonicalQueryKey(lo), CanonicalQueryKey(edge));

  ResultCache cache(ResultCacheOptions{});
  const ResultCache::Backend backend = [&engine](const Query& q) {
    return engine.Execute(q);
  };
  SessionCache session(&engine);
  for (const HistogramQuery* q : {&lo, &hi, &lo, &hi}) {
    auto direct = engine.Execute(*q);
    auto cached = cache.Execute(*q, backend);
    auto reused = session.Execute(*q);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(cached->response.data, direct->data);
    EXPECT_EQ(reused->response.data, direct->data);
    EXPECT_EQ(direct->stats.tuples_matched, q == &lo ? 0 : 2);
  }
  EXPECT_EQ(cache.Stats().misses, 2);
  EXPECT_EQ(cache.Stats().hits, 2);

  // Strings carry their length, so a value holding the separator text
  // cannot pass for two values.
  SelectQuery one_value{"near", {}, {StringInPredicate{"s", {"x', 'y"}}}};
  SelectQuery two_values{"near", {}, {StringInPredicate{"s", {"x", "y"}}}};
  ASSERT_EQ(QueryToString(one_value), QueryToString(two_values));
  EXPECT_NE(CanonicalQueryKey(one_value), CanonicalQueryKey(two_values));
}

// ----------------------- Progressive sampling property -----------------------

class ProgressivePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ProgressivePropertyTest, PrefixSamplingIsUnbiasedEnough) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 433 + 7);
  TablePtr table = RandomTable(&rng, 20000);
  HistogramQuery q;
  q.table = "rand";
  q.bin_column = "a";
  q.bin_lo = -100.0;
  q.bin_hi = 100.0;
  q.bins = 10;
  ProgressiveOptions opts;
  opts.fractions = {0.05, 0.25, 1.0};
  auto steps = RunProgressiveHistogram(table, q, opts);
  ASSERT_TRUE(steps.ok());
  // A 5% uniform sample of 20k rows estimates a 10-bin distribution to
  // within a small MSE; 25% must not be worse than 4x the 5% error.
  EXPECT_LT((*steps)[0].mse_vs_exact, 5e-4);
  EXPECT_LE((*steps)[1].mse_vs_exact, (*steps)[0].mse_vs_exact * 4.0 + 1e-9);
  EXPECT_DOUBLE_EQ((*steps)[2].mse_vs_exact, 0.0);
  // Sample totals track the fractions.
  EXPECT_NEAR((*steps)[0].estimate.total() / (*steps)[2].estimate.total(),
              0.05, 0.02);
}

INSTANTIATE_TEST_SUITE_P(RandomTables, ProgressivePropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace ideval
