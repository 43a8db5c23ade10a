// Workload generation for the interaction benchmark: the generated
// tables, the per-user interaction traces, and the open-loop schedule
// that replays them at a fixed offered rate.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query.h"
#include "storage/table.h"

namespace perfbench {

enum class WorkloadKind { kBrushDistinct, kBrushShared, kExploreNet };

/// Parses a workload name; false on an unknown name.
bool ParseWorkload(const std::string& name, WorkloadKind* out);
const char* WorkloadName(WorkloadKind kind);

/// The fixed make-up of one workload (README "Workloads").
struct WorkloadShape {
  int users = 0;            ///< Concurrent user sessions.
  double user_rate = 0.0;   ///< Interactions per second per user.
  int shared_traces = 0;    ///< brush_shared: distinct base sessions.
  bool net = false;         ///< Served through the socket front end.
};
WorkloadShape ShapeOf(WorkloadKind kind);

/// One scheduled interaction of one user.
struct Interaction {
  int session = 0;            ///< User index in [0, users).
  double intended_s = 0.0;    ///< Intended issue time from schedule start.
  /// The same user's next intended issue time: the interaction's LCV
  /// deadline (it must be answered before the user acts again).
  double next_intended_s = 0.0;
  bool measured = false;      ///< Issued inside the measured window.
  int group = 0;              ///< Index into `Schedule::groups`.
};

/// The whole open-loop input of one run, sorted by intended time.
struct Schedule {
  std::vector<std::vector<ideval::Query>> groups;
  std::vector<Interaction> interactions;
  double warmup_s = 0.0;
  double window_s = 0.0;
  int users = 0;
  /// FNV-1a digest of the stream (times, sessions, query text): equal
  /// digests mean equal inputs.
  uint64_t digest = 0;
};

/// Builds the table the workload queries (`dataroad` or `listings`).
ideval::Result<ideval::TablePtr> BuildTable(WorkloadKind kind);

/// Interactions per user in a window of `window_s` seconds.
int64_t InteractionsPerUser(WorkloadKind kind, double window_s);

/// Builds the seeded schedule: `warmup_s` of lead-in traffic followed by
/// a measured window of `window_s` seconds in which every user issues
/// exactly InteractionsPerUser(kind, window_s) interactions. Every range
/// bound of every query is rounded to six significant digits, so two
/// different queries of the stream never print alike (README "Known
/// faults").
ideval::Result<Schedule> BuildSchedule(WorkloadKind kind,
                                       const ideval::TablePtr& table,
                                       uint64_t seed, double warmup_s,
                                       double window_s);

/// Two one-query groups that differ only past the sixth significant
/// digit of a range bound, so the result cache's key cannot tell them
/// apart; the first matches at least one row.
struct CollisionProbe {
  std::vector<ideval::Query> first, second;
};

/// `count` probes with pairwise different keys, chosen from the table
/// alone: the same table gives the same probes whatever the seed.
ideval::Result<std::vector<CollisionProbe>> CollisionProbes(
    const ideval::Table& table, int64_t count);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
