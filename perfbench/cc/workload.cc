#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "data/datasets.h"
#include "workload/crossfilter_task.h"
#include "workload/explore_task.h"

namespace perfbench {

using ideval::Query;
using ideval::Result;
using ideval::Rng;
using ideval::Status;
using ideval::Table;
using ideval::TablePtr;

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (WorkloadKind k : {WorkloadKind::kBrushDistinct,
                         WorkloadKind::kBrushShared,
                         WorkloadKind::kExploreNet}) {
    if (name == WorkloadName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kBrushDistinct:
      return "brush_distinct";
    case WorkloadKind::kBrushShared:
      return "brush_shared";
    case WorkloadKind::kExploreNet:
      return "explore_net";
  }
  return "?";
}

WorkloadShape ShapeOf(WorkloadKind kind) {
  // Rates are fixed per workload so that parent and change see the same
  // offered load; README "Workloads" records how they were chosen.
  switch (kind) {
    case WorkloadKind::kBrushDistinct:
      return WorkloadShape{96, 5.0, 0, false};
    case WorkloadKind::kBrushShared:
      return WorkloadShape{96, 10.0, 4, false};
    case WorkloadKind::kExploreNet:
      return WorkloadShape{512, 0.5, 0, true};
  }
  return {};
}

Result<TablePtr> BuildTable(WorkloadKind kind) {
  if (kind == WorkloadKind::kExploreNet) {
    return ideval::MakeListingsTable(ideval::ListingsOptions{});
  }
  return ideval::MakeRoadNetworkTable(ideval::RoadNetworkOptions{});
}

namespace {

/// One user's natural interaction stream: issue times (seconds) and the
/// query group each one sends, as indices into `Schedule::groups`.
struct UserTrace {
  std::vector<double> times;
  std::vector<int> groups;
};

Result<UserTrace> CrossfilterUser(const TablePtr& road, uint64_t seed,
                                  int user, int moves, Schedule* out) {
  IDEVAL_ASSIGN_OR_RETURN(ideval::CrossfilterView view,
                          ideval::CrossfilterView::Make(road, {"x", "y", "z"}));
  ideval::CrossfilterUserParams params;
  params.user_id = user;
  params.num_moves = moves;
  params.seed = seed;
  IDEVAL_ASSIGN_OR_RETURN(ideval::CrossfilterTrace trace,
                          ideval::GenerateCrossfilterTrace(params, &view));
  IDEVAL_ASSIGN_OR_RETURN(ideval::CrossfilterView replay,
                          ideval::CrossfilterView::Make(road, {"x", "y", "z"}));
  IDEVAL_ASSIGN_OR_RETURN(std::vector<ideval::QueryGroup> groups,
                          ideval::BuildQueryGroups(&replay, trace.events));
  UserTrace t;
  for (auto& g : groups) {
    t.times.push_back(g.issue_time.seconds());
    t.groups.push_back(static_cast<int>(out->groups.size()));
    out->groups.push_back(std::move(g.queries));
  }
  return t;
}

Result<UserTrace> ExploreUser(const TablePtr& listings,
                              const std::vector<ideval::GeoCluster>& cities,
                              const ideval::ExploreUserParams& params,
                              Schedule* out) {
  ideval::CompositeInterface::Options copts;
  copts.table = listings->name();
  // Destinations sit where the inventory is, so searches return full
  // pages of rows rather than empty viewports.
  for (size_t i = 0; i < cities.size(); ++i) {
    copts.destinations.push_back(
        {"city" + std::to_string(i), cities[i].lat, cities[i].lng, 12});
  }
  ideval::CompositeInterface ui(
      ideval::MapWidget(cities[0].lat, cities[0].lng, 11), std::move(copts));
  IDEVAL_ASSIGN_OR_RETURN(ideval::ExploreTrace trace,
                          ideval::GenerateExploreTrace(params, &ui));
  UserTrace t;
  for (auto& phase : trace.phases) {
    t.times.push_back(phase.request.time.seconds());
    t.groups.push_back(static_cast<int>(out->groups.size()));
    out->groups.push_back({Query(std::move(phase.request.query))});
  }
  return t;
}

/// Where one user's stream is cut and how it is laid over the window.
struct Placement {
  size_t start = 0;    ///< First trace event of the measured segment.
  double scale = 1.0;  ///< Trace seconds -> schedule seconds.
  double phase = 0.0;  ///< Offset of the segment within the window.
};

/// Picks `n` consecutive events (plus one, for the last gap) and scales
/// them to span exactly `window_s`, so every user issues exactly `n`
/// interactions per window whatever the trace's own pace. Of a few
/// random cuts it keeps the one whose natural span is closest to the
/// window, so the user's pace is stretched or squeezed as little as
/// possible (a squeezed drag would outrun any real pointer).
Result<Placement> Place(const UserTrace& t, size_t n, double window_s,
                        Rng* rng) {
  if (t.times.size() < n + 1) {
    return Status::InvalidArgument("trace too short for the window");
  }
  Placement p;
  double best = -1.0;
  for (int k = 0; k < 16; ++k) {
    const size_t start = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(t.times.size() - n - 1)));
    const double span = t.times[start + n] - t.times[start];
    if (!(span > 0.0)) continue;
    const double distortion = std::abs(std::log(window_s / span));
    if (best < 0.0 || distortion < best) {
      best = distortion;
      p.start = start;
      p.scale = window_s / span;
    }
  }
  if (best < 0.0) return Status::InvalidArgument("trace has no time span");
  p.phase = rng->Uniform(0.0, window_s);
  return p;
}

/// Lays user `session`'s copy of the placed stream over the window and
/// the warm-up before it, delayed by `delay` seconds. The timing repeats
/// every window (position i of period p sits at phase + c_i + p * T);
/// the content does not: period p replays trace events j + p * n + i, so
/// a user never re-issues its own earlier interaction, while a delayed
/// copy re-issues exactly what the undelayed one sent `delay` earlier.
void Lay(const UserTrace& t, const Placement& p, size_t n, double delay,
         int session, Schedule* s) {
  const double T = s->window_s;
  const double W = s->warmup_s;
  const int64_t L = static_cast<int64_t>(t.times.size());
  const double base = t.times[p.start];
  auto offset = [&](size_t i) {
    return p.phase + delay + (t.times[p.start + i] - base) * p.scale;
  };
  for (size_t i = 0; i < n; ++i) {
    const double u = offset(i);
    const double next = offset(i + 1);
    // Every period whose copy of position i lands in [-W, T).
    for (int64_t period = 0; u + static_cast<double>(period) * T >= -W;
         --period) {
      const double tau = u + static_cast<double>(period) * T;
      if (tau >= T) continue;
      Interaction in;
      in.session = session;
      in.intended_s = W + tau;
      in.next_intended_s = W + next + static_cast<double>(period) * T;
      in.measured = tau >= 0.0;
      const int64_t idx = static_cast<int64_t>(p.start + i) +
                          period * static_cast<int64_t>(n);
      in.group = t.groups[static_cast<size_t>(((idx % L) + L) % L)];
      s->interactions.push_back(in);
    }
  }
}

void Fnv(uint64_t* h, const void* data, size_t n) {
  const auto* b = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= b[i];
    *h *= 1099511628211ULL;
  }
}
void FnvStr(uint64_t* h, const std::string& s) {
  const uint64_t n = s.size();
  Fnv(h, &n, sizeof(n));
  Fnv(h, s.data(), s.size());
}
template <typename T>
void FnvVal(uint64_t* h, T v) {
  Fnv(h, &v, sizeof(v));
}

void FnvPredicates(uint64_t* h, const std::vector<ideval::Predicate>& preds) {
  FnvVal(h, preds.size());
  for (const auto& p : preds) {
    FnvVal(h, p.index());
    if (const auto* r = std::get_if<ideval::RangePredicate>(&p)) {
      FnvStr(h, r->column);
      FnvVal(h, r->lo);
      FnvVal(h, r->hi);
    } else if (const auto* e = std::get_if<ideval::StringEqPredicate>(&p)) {
      FnvStr(h, e->column);
      FnvStr(h, e->value);
    } else if (const auto* in = std::get_if<ideval::StringInPredicate>(&p)) {
      FnvStr(h, in->column);
      for (const auto& v : in->values) FnvStr(h, v);
    }
  }
}

/// `v` as `%g` prints it (six significant digits).
std::string Print6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

double Snap(double v) { return std::strtod(Print6(v).c_str(), nullptr); }

void SnapBounds(Query* q) {
  auto snap_preds = [](std::vector<ideval::Predicate>* preds) {
    for (auto& p : *preds) {
      if (auto* r = std::get_if<ideval::RangePredicate>(&p)) {
        r->lo = Snap(r->lo);
        r->hi = Snap(r->hi);
      }
    }
  };
  if (auto* hq = std::get_if<ideval::HistogramQuery>(q)) {
    hq->bin_lo = Snap(hq->bin_lo);
    hq->bin_hi = Snap(hq->bin_hi);
    snap_preds(&hq->predicates);
  } else if (auto* sq = std::get_if<ideval::SelectQuery>(q)) {
    snap_preds(&sq->predicates);
  }
}

void FnvQuery(uint64_t* h, const Query& q) {
  FnvVal(h, q.index());
  if (const auto* hq = std::get_if<ideval::HistogramQuery>(&q)) {
    FnvStr(h, hq->table);
    FnvStr(h, hq->bin_column);
    FnvVal(h, hq->bin_lo);
    FnvVal(h, hq->bin_hi);
    FnvVal(h, hq->bins);
    FnvPredicates(h, hq->predicates);
  } else if (const auto* sq = std::get_if<ideval::SelectQuery>(&q)) {
    FnvStr(h, sq->table);
    for (const auto& c : sq->columns) FnvStr(h, c);
    FnvPredicates(h, sq->predicates);
    FnvVal(h, sq->limit);
    FnvVal(h, sq->offset);
  }
}

}  // namespace

int64_t InteractionsPerUser(WorkloadKind kind, double window_s) {
  return std::llround(ShapeOf(kind).user_rate * window_s);
}

Result<Schedule> BuildSchedule(WorkloadKind kind, const TablePtr& table,
                               uint64_t seed, double warmup_s,
                               double window_s) {
  const WorkloadShape shape = ShapeOf(kind);
  Schedule s;
  s.warmup_s = warmup_s;
  s.window_s = window_s;
  s.users = shape.users;
  const int64_t per_user = InteractionsPerUser(kind, window_s);
  if (per_user < 1) return Status::InvalidArgument("window too short");
  const size_t n = static_cast<size_t>(per_user);
  Rng rng(seed);

  if (kind == WorkloadKind::kExploreNet) {
    IDEVAL_ASSIGN_OR_RETURN(std::vector<ideval::GeoCluster> cities,
                            ideval::FindListingClusters(table, 4));
    auto users = ideval::SampleExploreUsers(shape.users, &rng);
    for (int u = 0; u < shape.users; ++u) {
      // Hour-long sessions give every user enough phases that no window
      // or warm-up slot repeats an earlier phase of the same user.
      users[u].min_session = ideval::Duration::Seconds(3600);
      IDEVAL_ASSIGN_OR_RETURN(UserTrace t,
                              ExploreUser(table, cities, users[u], &s));
      IDEVAL_ASSIGN_OR_RETURN(Placement p, Place(t, n, window_s, &rng));
      Lay(t, p, n, 0.0, u, &s);
    }
  } else if (kind == WorkloadKind::kBrushDistinct) {
    for (int u = 0; u < shape.users; ++u) {
      IDEVAL_ASSIGN_OR_RETURN(UserTrace t,
                              CrossfilterUser(table, rng.Next(), u, 20, &s));
      IDEVAL_ASSIGN_OR_RETURN(Placement p, Place(t, n, window_s, &rng));
      Lay(t, p, n, 0.0, u, &s);
    }
  } else {
    // A linked dashboard: `shared_traces` base sessions, each followed
    // by users/shared_traces viewers in pairs. A pair issues together (the
    // second of two identical in-flight queries can coalesce onto the
    // first); pairs follow each other at a fixed stagger, so every later
    // pair repeats what an earlier one already had answered. The whole
    // stagger fits inside the warm-up, so the window starts in steady
    // state.
    const int copies = shape.users / shape.shared_traces;
    const int pairs = (copies + 1) / 2;
    const double stagger = 0.8 * warmup_s / pairs;
    for (int b = 0; b < shape.shared_traces; ++b) {
      // Long base sessions: every window and warm-up slot of a viewer
      // replays a distinct event (the trace holds more than 3n events).
      IDEVAL_ASSIGN_OR_RETURN(UserTrace t,
                              CrossfilterUser(table, rng.Next(), b, 60, &s));
      IDEVAL_ASSIGN_OR_RETURN(Placement p, Place(t, n, window_s, &rng));
      for (int k = 0; k < copies; ++k) {
        Lay(t, p, n, stagger * (k / 2), b + k * shape.shared_traces, &s);
      }
    }
  }

  // The result cache keys a query by its text, which prints range
  // bounds to six significant digits; rounding every bound the schedule
  // sends to that resolution makes queries that print alike equal.
  std::vector<char> snapped(s.groups.size(), 0);
  for (const Interaction& in : s.interactions) {
    if (snapped[in.group]) continue;
    snapped[in.group] = 1;
    for (Query& q : s.groups[in.group]) SnapBounds(&q);
  }

  std::stable_sort(s.interactions.begin(), s.interactions.end(),
                   [](const Interaction& a, const Interaction& b) {
                     return a.intended_s < b.intended_s;
                   });
  uint64_t h = 1469598103934665603ULL;
  for (const Interaction& in : s.interactions) {
    FnvVal(&h, in.session);
    FnvVal(&h, in.intended_s);
    FnvVal(&h, in.measured);
    for (const Query& q : s.groups[in.group]) FnvQuery(&h, q);
  }
  s.digest = h;
  return s;
}

Result<std::vector<CollisionProbe>> CollisionProbes(const Table& table,
                                                    int64_t count) {
  // The histogram of the first double column, filtered to one value of
  // the second: `first` asks for a value some row holds, `second` for the
  // next double above it, which prints the same. The stride is prime, so
  // the walk visits every row of a table whose size it does not divide.
  std::vector<size_t> cols;
  for (size_t c = 0; c < table.num_columns() && cols.size() < 2; ++c) {
    if (table.column(c).type() == ideval::DataType::kDouble) cols.push_back(c);
  }
  if (cols.size() < 2 || table.num_rows() == 0) {
    return Status::InvalidArgument("probe needs two double columns");
  }
  const std::vector<double>& bin = table.column(cols[0]).double_data();
  const std::vector<double>& key = table.column(cols[1]).double_data();
  const auto [lo, hi] = std::minmax_element(bin.begin(), bin.end());
  std::vector<CollisionProbe> out;
  std::unordered_set<std::string> seen;
  const size_t rows = table.num_rows();
  constexpr size_t kStride = 7919;
  for (size_t k = 0; k < rows && static_cast<int64_t>(out.size()) < count;
       ++k) {
    const double v = key[(k * kStride) % rows];
    const double next =
        std::nextafter(v, std::numeric_limits<double>::infinity());
    if (Print6(v) != Print6(next) || !seen.insert(Print6(v)).second) continue;
    auto group = [&](double x) {
      ideval::HistogramQuery q;
      q.table = table.name();
      q.bin_column = table.schema().field(cols[0]).name;
      q.bin_lo = *lo;
      q.bin_hi = *hi;
      q.bins = 7;
      q.predicates = {
          ideval::RangePredicate{table.schema().field(cols[1]).name, x, x}};
      return std::vector<Query>{Query(std::move(q))};
    };
    out.push_back(CollisionProbe{group(v), group(next)});
  }
  if (static_cast<int64_t>(out.size()) < count) {
    return Status::InvalidArgument("table has too few distinct values");
  }
  return out;
}

}  // namespace perfbench
