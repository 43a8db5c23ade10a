/// Property suite for deadline-bounded progressive histogram execution
/// (`engine/progressive.h::RunDeadlineHistogram`, docs/progressive.md):
/// a run that completes every pass is bitwise identical to the exact
/// path; a truncated run is flagged approximate with per-bin confidence
/// intervals that contain the exact answer at (about) the stated
/// confidence across seeds; an already-expired deadline still yields at
/// least one pass.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>

#include "engine/engine.h"
#include "engine/progressive.h"

namespace ideval {
namespace {

/// Deterministic LCG, so every run sees the same synthetic table.
uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ull + 1442695040888963407ull;
  return *state >> 33;
}

/// `rows` iid uniform values in [0, 1) (so rows are exchangeable across
/// blocks, the regime cluster sampling assumes) plus a sorted filter
/// column `f = (i + 0.5) / rows` that zone maps can actually prune on.
TablePtr RandomTable(int64_t rows, uint64_t seed) {
  Schema schema({{"v", DataType::kDouble}, {"f", DataType::kDouble}});
  TableBuilder b("rand", schema);
  uint64_t state = seed;
  for (int64_t i = 0; i < rows; ++i) {
    const double v =
        static_cast<double>(Next(&state) % 1000000) / 1000000.0;
    const double f = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(rows);
    b.MustAppendRow({Value(v), Value(f)});
  }
  return std::move(b).Finish().ValueOrDie();
}

HistogramQuery RandQuery(int bins = 8) {
  HistogramQuery q;
  q.table = "rand";
  q.bin_column = "v";
  q.bin_lo = 0.0;
  q.bin_hi = 1.0;
  q.bins = bins;
  return q;
}

EngineOptions EngineOpts(bool zone_maps = false) {
  EngineOptions opts;
  opts.profile = EngineProfile::kInMemoryColumnStore;
  opts.enable_zone_maps = zone_maps;
  return opts;
}

// ------------------------- Exactness properties -------------------------

TEST(ProgressiveDeadline, UnboundedRunIsBitwiseExact) {
  TablePtr t = RandomTable(50000, 7);
  Engine engine(EngineOpts());
  ASSERT_TRUE(engine.RegisterTable(t).ok());
  HistogramQuery q = RandQuery();
  q.predicates = {RangePredicate{"f", 0.25, 0.9}};

  auto exact = engine.Execute(Query(q));
  ASSERT_TRUE(exact.ok());
  const auto& exact_hist = std::get<FixedHistogram>(exact->data);

  for (uint64_t seed : {0ull, 1ull, 42ull}) {
    ProgressiveDeadlineOptions popts;  // No deadline: runs to completion.
    popts.seed = seed;
    auto r = engine.ExecuteHistogramProgressive(q, popts);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->approximate);
    EXPECT_DOUBLE_EQ(r->fraction_rows, 1.0);
    // Bitwise, not approximately: the running histogram only ever sees
    // integer count increments, which doubles carry exactly.
    EXPECT_EQ(r->histogram, exact_hist) << "seed " << seed;
    for (double hw : r->ci_half_width) EXPECT_EQ(hw, 0.0);
    EXPECT_GE(r->passes, 1);
    EXPECT_EQ(r->blocks_visited, r->blocks_total);
    // The same scan primitive does the same work as the full scan.
    EXPECT_EQ(r->stats.tuples_scanned, exact->stats.tuples_scanned);
    EXPECT_EQ(r->stats.tuples_matched, exact->stats.tuples_matched);
    EXPECT_EQ(r->stats.blocks_pruned, exact->stats.blocks_pruned);
  }
}

TEST(ProgressiveDeadline, UnboundedMatchesExactUnderZoneMapPruning) {
  TablePtr t = RandomTable(50000, 11);
  Engine engine(EngineOpts(/*zone_maps=*/true));
  ASSERT_TRUE(engine.RegisterTable(t).ok());
  HistogramQuery q = RandQuery();
  q.predicates = {RangePredicate{"f", 0.0, 0.4}};

  auto exact = engine.Execute(Query(q));
  ASSERT_TRUE(exact.ok());
  ProgressiveDeadlineOptions popts;
  auto r = engine.ExecuteHistogramProgressive(q, popts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->approximate);
  EXPECT_EQ(r->histogram, std::get<FixedHistogram>(exact->data));
  // The sorted filter column guarantees pruning actually fired here.
  EXPECT_GT(r->stats.blocks_pruned, 0);
  EXPECT_EQ(r->stats.blocks_pruned, exact->stats.blocks_pruned);
  EXPECT_EQ(r->stats.tuples_scanned, exact->stats.tuples_scanned);
  EXPECT_EQ(r->stats.tuples_matched, exact->stats.tuples_matched);
  EXPECT_LT(r->blocks_total,
            static_cast<int64_t>((50000 + 4095) / 4096));
  // Pruned blocks count toward the resolved fraction: nothing in them
  // can match, so they are as "seen" as a scanned block.
  EXPECT_DOUBLE_EQ(r->fraction_rows, 1.0);
}

// ------------------------ Approximation properties ----------------------

TEST(ProgressiveDeadline, TruncatedRunIsApproximateWithBounds) {
  TablePtr t = RandomTable(100000, 3);  // 25 blocks of 4096.
  Engine engine(EngineOpts());
  ASSERT_TRUE(engine.RegisterTable(t).ok());
  HistogramQuery q = RandQuery();

  ProgressiveDeadlineOptions popts;
  popts.max_blocks = 10;  // Deterministic partial run.
  popts.seed = 5;
  auto r = engine.ExecuteHistogramProgressive(q, popts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->approximate);
  EXPECT_LT(r->fraction_rows, 1.0);
  EXPECT_GT(r->fraction_rows, 0.0);
  EXPECT_EQ(r->blocks_visited, 10);
  ASSERT_EQ(r->ci_half_width.size(), r->histogram.num_bins());
  // An approximate result must carry usable error bounds.
  for (double hw : r->ci_half_width) {
    EXPECT_GT(hw, 0.0);
    EXPECT_TRUE(std::isfinite(hw));
  }
  // The estimate scales the partial sums up to the full table: totals
  // should be in the right ballpark (within 25% for uniform data).
  double total = 0.0;
  for (double c : r->histogram.counts()) total += c;
  EXPECT_NEAR(total, 100000.0, 25000.0);
}

TEST(ProgressiveDeadline, ConfidenceIntervalsCoverExactAnswer) {
  // Exactly 25 full blocks (25 * 4096): with a partial trailing block the
  // equal-size cluster estimator carries a size bias that the CI does not
  // model, which would make nominal coverage unreachable.
  TablePtr t = RandomTable(25 * 4096, 19);
  Engine engine(EngineOpts());
  ASSERT_TRUE(engine.RegisterTable(t).ok());
  HistogramQuery q = RandQuery();

  auto exact = engine.Execute(Query(q));
  ASSERT_TRUE(exact.ok());
  const auto& exact_hist = std::get<FixedHistogram>(exact->data);

  int covered = 0;
  int checks = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    ProgressiveDeadlineOptions popts;
    popts.max_blocks = 12;
    popts.seed = seed;
    popts.confidence = 0.95;
    auto r = engine.ExecuteHistogramProgressive(q, popts);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->approximate);
    for (size_t b = 0; b < exact_hist.num_bins(); ++b) {
      const double err =
          std::abs(r->histogram.counts()[b] - exact_hist.counts()[b]);
      covered += err <= r->ci_half_width[b] ? 1 : 0;
      ++checks;
    }
  }
  // Nominal coverage 95%; cluster sampling with m=12 of 25 blocks plus
  // the normal approximation leaves slack, so assert a floor well above
  // what an uncalibrated (e.g. 50%) interval could reach.
  const double coverage = static_cast<double>(covered) / checks;
  EXPECT_GE(coverage, 0.85) << covered << "/" << checks;
}

TEST(ProgressiveDeadline, ExpiredDeadlineStillRunsOnePass) {
  TablePtr t = RandomTable(100000, 23);
  Engine engine(EngineOpts());
  ASSERT_TRUE(engine.RegisterTable(t).ok());
  ProgressiveDeadlineOptions popts;
  // A deadline in the past: the executor must not spin and must not
  // return an empty histogram — one minimal pass always runs.
  popts.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(10);
  auto r = engine.ExecuteHistogramProgressive(RandQuery(), popts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->approximate);
  EXPECT_EQ(r->passes, 1);
  EXPECT_GT(r->blocks_visited, 0);
  EXPECT_LT(r->blocks_visited, r->blocks_total);
  EXPECT_EQ(r->pass_log.size(), 1u);
  EXPECT_GT(r->pass_log[0].rows, 0);
}

TEST(ProgressiveDeadline, SeedVariesThePrefixNotTheFullRun) {
  TablePtr t = RandomTable(100000, 29);
  Engine engine(EngineOpts());
  ASSERT_TRUE(engine.RegisterTable(t).ok());
  HistogramQuery q = RandQuery();
  ProgressiveDeadlineOptions a;
  a.max_blocks = 8;
  a.seed = 1;
  ProgressiveDeadlineOptions b = a;
  b.seed = 2;
  auto ra = engine.ExecuteHistogramProgressive(q, a);
  auto rb = engine.ExecuteHistogramProgressive(q, b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Different seeds sample different block prefixes -> (almost surely)
  // different estimates on random data...
  EXPECT_NE(ra->histogram, rb->histogram);
  // ...but identical full runs regardless of seed.
  ProgressiveDeadlineOptions full_a;
  full_a.seed = 1;
  ProgressiveDeadlineOptions full_b;
  full_b.seed = 2;
  auto fa = engine.ExecuteHistogramProgressive(q, full_a);
  auto fb = engine.ExecuteHistogramProgressive(q, full_b);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  EXPECT_EQ(fa->histogram, fb->histogram);
}

// ------------------------------ Validation ------------------------------

TEST(ProgressiveDeadline, RejectsBadArguments) {
  TablePtr t = RandomTable(1000, 31);
  Engine engine(EngineOpts());
  ASSERT_TRUE(engine.RegisterTable(t).ok());
  HistogramQuery q = RandQuery();
  q.bins = 0;
  ProgressiveDeadlineOptions popts;
  EXPECT_FALSE(engine.ExecuteHistogramProgressive(q, popts).ok());

  q = RandQuery();
  popts.confidence = 1.5;
  EXPECT_FALSE(engine.ExecuteHistogramProgressive(q, popts).ok());
  popts.confidence = 0.0;
  EXPECT_FALSE(engine.ExecuteHistogramProgressive(q, popts).ok());

  popts = ProgressiveDeadlineOptions{};
  q.table = "no_such_table";
  EXPECT_FALSE(engine.ExecuteHistogramProgressive(q, popts).ok());
}

TEST(ProgressiveDeadline, StatsAccountForScannedAndPrunedBlocks) {
  TablePtr t = RandomTable(100000, 37);
  Engine engine(EngineOpts());
  ASSERT_TRUE(engine.RegisterTable(t).ok());
  ProgressiveDeadlineOptions popts;
  popts.max_blocks = 5;
  auto r = engine.ExecuteHistogramProgressive(RandQuery(), popts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.blocks_scanned, 5);
  EXPECT_EQ(r->stats.tuples_scanned, 5 * 4096);
  EXPECT_EQ(r->stats.tuples_matched, r->stats.tuples_scanned);
  EXPECT_DOUBLE_EQ(r->fraction_rows, 5.0 * 4096.0 / 100000.0);
}

}  // namespace
}  // namespace ideval
