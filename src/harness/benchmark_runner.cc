#include "harness/benchmark_runner.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/text_table.h"
#include "data/datasets.h"
#include "engine/sharded_engine.h"
#include "metrics/human_factors.h"
#include "net/net_load_driver.h"
#include "net/net_server.h"
#include "opt/kl_filter.h"
#include "opt/throttle.h"
#include "serve/load_driver.h"
#include "serve/server.h"
#include "widget/crossfilter.h"
#include "workload/crossfilter_task.h"
#include "workload/explore_task.h"
#include "workload/scroll_task.h"

namespace ideval {

const char* InterfaceKindToString(InterfaceKind kind) {
  switch (kind) {
    case InterfaceKind::kInertialScroll:
      return "scroll";
    case InterfaceKind::kCrossfilter:
      return "crossfilter";
    case InterfaceKind::kCompositeExplore:
      return "explore";
  }
  return "unknown";
}

namespace {

Result<InterfaceKind> ParseInterface(const std::string& v) {
  if (v == "scroll") return InterfaceKind::kInertialScroll;
  if (v == "crossfilter") return InterfaceKind::kCrossfilter;
  if (v == "explore") return InterfaceKind::kCompositeExplore;
  return Status::InvalidArgument("unknown interface '" + v + "'");
}

Result<DeviceType> ParseDevice(const std::string& v) {
  if (v == "mouse") return DeviceType::kMouse;
  if (v == "trackpad") return DeviceType::kTouchTrackpad;
  if (v == "touch") return DeviceType::kTouchTablet;
  if (v == "leap") return DeviceType::kLeapMotion;
  return Status::InvalidArgument("unknown device '" + v + "'");
}

Result<EngineProfile> ParseEngine(const std::string& v) {
  if (v == "disk") return EngineProfile::kDiskRowStore;
  if (v == "memory") return EngineProfile::kInMemoryColumnStore;
  return Status::InvalidArgument("unknown engine '" + v + "'");
}

Result<ScrollLoadStrategy> ParseScrollStrategy(const std::string& v) {
  if (v == "lazy") return ScrollLoadStrategy::kLazyLoad;
  if (v == "event") return ScrollLoadStrategy::kEventFetch;
  if (v == "timer") return ScrollLoadStrategy::kTimerFetch;
  return Status::InvalidArgument("unknown scroll_strategy '" + v + "'");
}

Result<AdmissionPolicy> ParseAdmission(const std::string& v) {
  if (v == "fifo") return AdmissionPolicy::kFifo;
  if (v == "skip") return AdmissionPolicy::kSkipStale;
  if (v == "debounce") return AdmissionPolicy::kDebounce;
  if (v == "throttle") return AdmissionPolicy::kThrottle;
  return Status::InvalidArgument("unknown admission policy '" + v + "'");
}

Result<bool> ParseBool(const std::string& key, const std::string& v) {
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  return Status::InvalidArgument("bad boolean value for '" + key + "': " + v);
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  size_t e = s.find_last_not_of(" \t\r");
  if (b == std::string::npos) return "";
  return s.substr(b, e - b + 1);
}

Result<double> ParseNumber(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad numeric value for '" + key + "': " +
                                   v);
  }
  return d;
}

}  // namespace

Result<WorkloadSpec> ParseWorkloadSpec(const std::string& text) {
  WorkloadSpec spec;
  size_t pos = 0;
  int line_no = 0;
  std::set<std::string> seen_keys;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = Trim(text.substr(pos, nl - pos));
    pos = nl + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected 'key = value'", line_no));
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (!seen_keys.insert(key).second) {
      // A spec that silently lets a later line win is ambiguous about
      // what was benchmarked — duplicates are as fatal as unknown keys.
      return Status::InvalidArgument(
          StrFormat("line %d: duplicate key '%s'", line_no, key.c_str()));
    }

    if (key == "name") {
      spec.name = value;
    } else if (key == "interface") {
      IDEVAL_ASSIGN_OR_RETURN(spec.interface_kind, ParseInterface(value));
    } else if (key == "device") {
      IDEVAL_ASSIGN_OR_RETURN(spec.device, ParseDevice(value));
    } else if (key == "engine") {
      IDEVAL_ASSIGN_OR_RETURN(spec.engine, ParseEngine(value));
    } else if (key == "users") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 1) return Status::InvalidArgument("users must be >= 1");
      spec.num_users = static_cast<int>(n);
    } else if (key == "seed") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      spec.seed = static_cast<uint64_t>(n);
    } else if (key == "rows") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 0) return Status::InvalidArgument("rows must be >= 0");
      spec.rows = static_cast<int64_t>(n);
    } else if (key == "kl_threshold") {
      IDEVAL_ASSIGN_OR_RETURN(spec.kl_threshold, ParseNumber(key, value));
    } else if (key == "throttle_ms") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 0) return Status::InvalidArgument("throttle_ms must be >= 0");
      spec.throttle_interval = Duration::MillisF(n);
    } else if (key == "policy") {
      if (value == "fifo") {
        spec.policy = SchedulingPolicy::kFifo;
      } else if (value == "skip") {
        spec.policy = SchedulingPolicy::kSkipStale;
      } else {
        return Status::InvalidArgument("unknown policy '" + value + "'");
      }
    } else if (key == "connections") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 1) return Status::InvalidArgument("connections must be >= 1");
      spec.num_connections = static_cast<int>(n);
    } else if (key == "crossfilter_moves") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 1) {
        return Status::InvalidArgument("crossfilter_moves must be >= 1");
      }
      spec.crossfilter_moves = static_cast<int>(n);
    } else if (key == "scroll_strategy") {
      IDEVAL_ASSIGN_OR_RETURN(spec.scroll_strategy,
                              ParseScrollStrategy(value));
    } else if (key == "tuples_per_fetch") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 1) {
        return Status::InvalidArgument("tuples_per_fetch must be >= 1");
      }
      spec.scroll_tuples_per_fetch = static_cast<int64_t>(n);
    } else if (key == "session_minutes") {
      IDEVAL_ASSIGN_OR_RETURN(spec.explore_session_minutes,
                              ParseNumber(key, value));
      if (spec.explore_session_minutes <= 0) {
        return Status::InvalidArgument("session_minutes must be > 0");
      }
    } else if (key == "serve_threads") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 0) return Status::InvalidArgument("serve_threads must be >= 0");
      spec.serve_threads = static_cast<int>(n);
    } else if (key == "serve_clients") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 0) return Status::InvalidArgument("serve_clients must be >= 0");
      spec.serve_clients = static_cast<int>(n);
    } else if (key == "serve_queue_cap") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 1) {
        return Status::InvalidArgument("serve_queue_cap must be >= 1");
      }
      spec.serve_queue_cap = static_cast<int>(n);
    } else if (key == "admission") {
      IDEVAL_ASSIGN_OR_RETURN(spec.admission, ParseAdmission(value));
    } else if (key == "adaptive_admission") {
      IDEVAL_ASSIGN_OR_RETURN(spec.adaptive_admission,
                              ParseBool(key, value));
    } else if (key == "serve_shared_cache") {
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_shared_cache,
                              ParseBool(key, value));
    } else if (key == "engine_zone_maps") {
      IDEVAL_ASSIGN_OR_RETURN(spec.engine_zone_maps, ParseBool(key, value));
    } else if (key == "serve_shards") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 1) return Status::InvalidArgument("serve_shards must be >= 1");
      spec.serve_shards = static_cast<int>(n);
    } else if (key == "time_compression") {
      IDEVAL_ASSIGN_OR_RETURN(spec.time_compression,
                              ParseNumber(key, value));
      if (spec.time_compression <= 0) {
        return Status::InvalidArgument("time_compression must be > 0");
      }
    } else if (key == "serve_trace") {
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_trace, ParseBool(key, value));
    } else if (key == "serve_trace_buffer_spans") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 1) {
        return Status::InvalidArgument(
            "serve_trace_buffer_spans must be >= 1");
      }
      spec.serve_trace_buffer_spans = static_cast<int64_t>(n);
    } else if (key == "serve_slow_query_ms") {
      // Negative disables the log, so any number parses.
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_slow_query_ms,
                              ParseNumber(key, value));
    } else if (key == "serve_metrics") {
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_metrics, ParseBool(key, value));
    } else if (key == "serve_stats_poll_ms") {
      // <= 0 disables the poller, so any number parses.
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_stats_poll_ms,
                              ParseNumber(key, value));
    } else if (key == "serve_net") {
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_net, ParseBool(key, value));
    } else if (key == "serve_net_port") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n < 1 || n > 65535) {
        return Status::InvalidArgument(
            "serve_net_port must be in 1..65535");
      }
      spec.serve_net_port = static_cast<int>(n);
    } else if (key == "serve_progressive") {
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_progressive, ParseBool(key, value));
    } else if (key == "serve_deadline_ms") {
      // <= 0 falls back to the session inter-arrival budget.
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_deadline_ms,
                              ParseNumber(key, value));
    } else if (key == "serve_slo") {
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_slo, ParseBool(key, value));
    } else if (key == "serve_slo_lcv_target") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n <= 0.0 || n >= 1.0) {
        return Status::InvalidArgument(
            "serve_slo_lcv_target must be in (0, 1)");
      }
      spec.serve_slo_lcv_target = n;
    } else if (key == "serve_slo_latency_p90_ms") {
      // <= 0 means "no latency SLO", so any number parses.
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_slo_latency_p90_ms,
                              ParseNumber(key, value));
    } else if (key == "serve_slo_shed_target") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n >= 1.0) {
        return Status::InvalidArgument(
            "serve_slo_shed_target must be < 1 (<= 0 disables)");
      }
      spec.serve_slo_shed_target = n;
    } else if (key == "serve_slo_window_scale") {
      IDEVAL_ASSIGN_OR_RETURN(double n, ParseNumber(key, value));
      if (n <= 0.0) {
        return Status::InvalidArgument(
            "serve_slo_window_scale must be > 0");
      }
      spec.serve_slo_window_scale = n;
    } else if (key == "serve_slo_admission") {
      IDEVAL_ASSIGN_OR_RETURN(spec.serve_slo_admission,
                              ParseBool(key, value));
    } else {
      return Status::InvalidArgument(
          StrFormat("line %d: unknown key '%s'", line_no, key.c_str()));
    }
  }
  return spec;
}

std::string WorkloadSpecToText(const WorkloadSpec& spec) {
  std::string device;
  switch (spec.device) {
    case DeviceType::kMouse:
      device = "mouse";
      break;
    case DeviceType::kTouchTrackpad:
      device = "trackpad";
      break;
    case DeviceType::kTouchTablet:
      device = "touch";
      break;
    case DeviceType::kLeapMotion:
      device = "leap";
      break;
  }
  std::string out;
  out += "name = " + spec.name + "\n";
  out += StrFormat("interface = %s\n",
                   InterfaceKindToString(spec.interface_kind));
  out += "device = " + device + "\n";
  out += StrFormat("engine = %s\n",
                   spec.engine == EngineProfile::kDiskRowStore ? "disk"
                                                               : "memory");
  out += StrFormat("users = %d\n", spec.num_users);
  out += StrFormat("seed = %llu\n",
                   static_cast<unsigned long long>(spec.seed));
  out += StrFormat("rows = %lld\n", static_cast<long long>(spec.rows));
  out += StrFormat("kl_threshold = %g\n", spec.kl_threshold);
  out += StrFormat("throttle_ms = %g\n", spec.throttle_interval.millis());
  out += StrFormat("policy = %s\n",
                   spec.policy == SchedulingPolicy::kFifo ? "fifo" : "skip");
  out += StrFormat("connections = %d\n", spec.num_connections);
  out += StrFormat("crossfilter_moves = %d\n", spec.crossfilter_moves);
  out += StrFormat("scroll_strategy = %s\n",
                   ScrollLoadStrategyToString(spec.scroll_strategy));
  out += StrFormat("tuples_per_fetch = %lld\n",
                   static_cast<long long>(spec.scroll_tuples_per_fetch));
  out += StrFormat("session_minutes = %g\n", spec.explore_session_minutes);
  out += StrFormat("serve_threads = %d\n", spec.serve_threads);
  out += StrFormat("serve_clients = %d\n", spec.serve_clients);
  out += StrFormat("serve_queue_cap = %d\n", spec.serve_queue_cap);
  out += StrFormat("admission = %s\n",
                   AdmissionPolicyToString(spec.admission));
  out += StrFormat("adaptive_admission = %s\n",
                   spec.adaptive_admission ? "true" : "false");
  out += StrFormat("serve_shared_cache = %s\n",
                   spec.serve_shared_cache ? "true" : "false");
  out += StrFormat("serve_shards = %d\n", spec.serve_shards);
  out += StrFormat("time_compression = %g\n", spec.time_compression);
  out += StrFormat("serve_trace = %s\n", spec.serve_trace ? "true" : "false");
  out += StrFormat("serve_trace_buffer_spans = %lld\n",
                   static_cast<long long>(spec.serve_trace_buffer_spans));
  out += StrFormat("serve_slow_query_ms = %g\n", spec.serve_slow_query_ms);
  out += StrFormat("serve_metrics = %s\n",
                   spec.serve_metrics ? "true" : "false");
  out += StrFormat("serve_stats_poll_ms = %g\n", spec.serve_stats_poll_ms);
  out += StrFormat("serve_net = %s\n", spec.serve_net ? "true" : "false");
  if (spec.serve_net_port != 0) {
    out += StrFormat("serve_net_port = %d\n", spec.serve_net_port);
  }
  out += StrFormat("serve_progressive = %s\n",
                   spec.serve_progressive ? "true" : "false");
  out += StrFormat("serve_deadline_ms = %g\n", spec.serve_deadline_ms);
  out += StrFormat("serve_slo = %s\n", spec.serve_slo ? "true" : "false");
  if (spec.serve_slo) {
    out += StrFormat("serve_slo_lcv_target = %g\n",
                     spec.serve_slo_lcv_target);
    out += StrFormat("serve_slo_latency_p90_ms = %g\n",
                     spec.serve_slo_latency_p90_ms);
    out += StrFormat("serve_slo_shed_target = %g\n",
                     spec.serve_slo_shed_target);
    out += StrFormat("serve_slo_window_scale = %g\n",
                     spec.serve_slo_window_scale);
    out += StrFormat("serve_slo_admission = %s\n",
                     spec.serve_slo_admission ? "true" : "false");
  }
  out += StrFormat("engine_zone_maps = %s\n",
                   spec.engine_zone_maps ? "true" : "false");
  return out;
}

namespace {

Result<WorkloadReport> RunCrossfilterWorkload(const WorkloadSpec& spec,
                                              WorkloadReport report) {
  RoadNetworkOptions dopts;
  if (spec.rows > 0) dopts.num_rows = spec.rows;
  IDEVAL_ASSIGN_OR_RETURN(TablePtr road, MakeRoadNetworkTable(dopts));

  EngineOptions eopts;
  eopts.profile = spec.engine;
  eopts.enable_zone_maps = spec.engine_zone_maps;
  Engine engine(eopts);
  IDEVAL_RETURN_NOT_OK(engine.RegisterTable(road));

  Rng rng(spec.seed);
  std::vector<QueryTimeline> all_timelines;
  double session_s = 0.0;
  double interactions = 0.0;
  std::vector<SimTime> issue_times;
  for (int user = 0; user < spec.num_users; ++user) {
    IDEVAL_ASSIGN_OR_RETURN(
        CrossfilterView view,
        CrossfilterView::Make(road, {"x", "y", "z"}));
    CrossfilterUserParams params;
    params.user_id = user;
    params.device = spec.device;
    params.num_moves = spec.crossfilter_moves;
    params.seed = rng.Next();
    IDEVAL_ASSIGN_OR_RETURN(CrossfilterTrace trace,
                            GenerateCrossfilterTrace(params, &view));
    IDEVAL_ASSIGN_OR_RETURN(
        CrossfilterView replay,
        CrossfilterView::Make(road, {"x", "y", "z"}));
    IDEVAL_ASSIGN_OR_RETURN(std::vector<QueryGroup> groups,
                            BuildQueryGroups(&replay, trace.events));

    report.interaction_events += static_cast<int64_t>(trace.events.size());
    for (const auto& g : groups) {
      report.queries_generated += static_cast<int64_t>(g.queries.size());
      issue_times.push_back(g.issue_time);
    }
    session_s += trace.session_duration.seconds();
    interactions += static_cast<double>(trace.events.size());

    // Client-side optimizations.
    if (spec.throttle_interval > Duration::Zero()) {
      QifThrottler throttler(spec.throttle_interval);
      groups = ThrottleQueryGroups(&throttler, groups);
    }
    if (spec.kl_threshold >= 0.0) {
      IDEVAL_ASSIGN_OR_RETURN(KlQueryFilter filter,
                              KlQueryFilter::Make(road, spec.kl_threshold));
      IDEVAL_ASSIGN_OR_RETURN(groups, FilterQueryGroups(&filter, groups));
    }

    SchedulerOptions sopts;
    sopts.policy = spec.policy;
    sopts.num_connections = spec.num_connections;
    QueryScheduler scheduler(&engine, sopts);
    IDEVAL_ASSIGN_OR_RETURN(SessionExecution run, scheduler.Run(groups));
    report.groups_skipped += run.groups_skipped;
    for (auto& t : run.timelines) all_timelines.push_back(std::move(t));
  }

  std::sort(issue_times.begin(), issue_times.end());
  IDEVAL_ASSIGN_OR_RETURN(QifStats qif, ComputeQif(issue_times));
  report.qif = qif.qif / std::max(1, spec.num_users);
  for (const auto& t : all_timelines) {
    report.queries_executed += !t.skipped;
  }
  report.queries_suppressed =
      report.queries_generated - report.queries_executed;
  const LcvStats lcv = ComputeCrossfilterLcv(all_timelines);
  report.lcv_fraction = lcv.ViolationFraction();
  const Summary latency = PerceivedLatencySummary(all_timelines);
  report.median_latency_ms = latency.median();
  report.p90_latency_ms = latency.Quantile(0.9);
  report.max_latency_ms = latency.max();
  report.throughput_qps = ComputeThroughput(all_timelines);
  report.mean_session_s = session_s / spec.num_users;
  report.mean_interactions_per_user = interactions / spec.num_users;
  return report;
}

Result<WorkloadReport> RunScrollWorkload(const WorkloadSpec& spec,
                                         WorkloadReport report) {
  MoviesOptions dopts;
  if (spec.rows > 0) dopts.num_rows = spec.rows;
  IDEVAL_ASSIGN_OR_RETURN(TablePtr movies, MakeMoviesTable(dopts));
  EngineOptions eopts;
  eopts.profile = spec.engine;
  eopts.enable_zone_maps = spec.engine_zone_maps;
  Engine engine(eopts);
  IDEVAL_RETURN_NOT_OK(engine.RegisterTable(movies));

  Rng rng(spec.seed);
  auto users = SampleScrollUsers(spec.num_users, &rng);
  ScrollTaskOptions topts;
  topts.scroller.total_tuples = movies->num_rows();

  int64_t stalls = 0;
  double stall_ms_total = 0.0;
  int64_t stall_count_for_mean = 0;
  double session_s = 0.0;
  double interactions = 0.0;
  double qif_total = 0.0;
  for (const auto& user : users) {
    IDEVAL_ASSIGN_OR_RETURN(ScrollTrace trace,
                            GenerateScrollTrace(user, topts));
    report.interaction_events += static_cast<int64_t>(trace.events.size());
    session_s += trace.session_duration.seconds();
    const HumanFactors hf = ComputeScrollHumanFactors(trace);
    interactions += static_cast<double>(hf.num_interactions);
    if (trace.session_duration > Duration::Zero()) {
      qif_total += static_cast<double>(trace.events.size()) /
                   trace.session_duration.seconds();
    }

    ScrollLoadOptions lopts;
    lopts.strategy = spec.scroll_strategy;
    lopts.tuples_per_fetch = spec.scroll_tuples_per_fetch;
    lopts.table = movies->name();
    engine.ClearCaches();
    IDEVAL_ASSIGN_OR_RETURN(ScrollLoadReport load,
                            SimulateScrollLoading(trace, &engine, lopts));
    report.queries_generated += load.fetches_issued;
    report.queries_executed += load.fetches_issued;
    stalls += load.violations;
    for (Duration w : load.waits) {
      stall_ms_total += w.millis();
      ++stall_count_for_mean;
    }
  }
  report.stalls = stalls;
  report.mean_stall_ms =
      stall_count_for_mean == 0 ? 0.0
                                : stall_ms_total / stall_count_for_mean;
  report.lcv_fraction =
      report.interaction_events == 0
          ? 0.0
          : static_cast<double>(stalls) /
                static_cast<double>(report.interaction_events);
  report.qif = qif_total / spec.num_users;
  report.mean_session_s = session_s / spec.num_users;
  report.mean_interactions_per_user = interactions / spec.num_users;
  report.median_latency_ms = *report.mean_stall_ms;  // Stall = user wait.
  report.p90_latency_ms = *report.mean_stall_ms;
  report.max_latency_ms = *report.mean_stall_ms;
  return report;
}

Result<WorkloadReport> RunExploreWorkload(const WorkloadSpec& spec,
                                          WorkloadReport report) {
  ListingsOptions dopts;
  if (spec.rows > 0) dopts.num_rows = spec.rows;
  IDEVAL_ASSIGN_OR_RETURN(TablePtr listings, MakeListingsTable(dopts));
  EngineOptions eopts;
  eopts.profile = spec.engine;
  eopts.enable_zone_maps = spec.engine_zone_maps;
  Engine engine(eopts);
  IDEVAL_RETURN_NOT_OK(engine.RegisterTable(listings));

  Rng rng(spec.seed);
  auto users = SampleExploreUsers(spec.num_users, &rng);
  std::vector<QueryTimeline> all_timelines;
  double session_s = 0.0;
  double interactions = 0.0;
  std::vector<SimTime> issue_times;
  for (auto& user : users) {
    user.min_session = Duration::Seconds(spec.explore_session_minutes * 60);
    CompositeInterface::Options copts;
    copts.table = listings->name();
    copts.destinations = {{"Birmingham", 33.52, -86.80, 12},
                          {"Atlanta", 33.75, -84.39, 12},
                          {"Nashville", 36.16, -86.78, 11},
                          {"Memphis", 35.15, -90.05, 12}};
    CompositeInterface ui(MapWidget(32.0, -86.0, 11), std::move(copts));
    IDEVAL_ASSIGN_OR_RETURN(ExploreTrace trace,
                            GenerateExploreTrace(user, &ui));
    session_s += trace.session_duration.seconds();
    interactions += static_cast<double>(trace.phases.size());
    report.interaction_events += static_cast<int64_t>(trace.phases.size());

    std::vector<QueryGroup> groups;
    for (const auto& phase : trace.phases) {
      QueryGroup g;
      g.issue_time = phase.request.time;
      g.queries.push_back(phase.request.query);
      groups.push_back(std::move(g));
      issue_times.push_back(phase.request.time);
      ++report.queries_generated;
    }
    SchedulerOptions sopts;
    sopts.policy = spec.policy;
    sopts.num_connections = spec.num_connections;
    QueryScheduler scheduler(&engine, sopts);
    IDEVAL_ASSIGN_OR_RETURN(SessionExecution run, scheduler.Run(groups));
    report.groups_skipped += run.groups_skipped;
    for (auto& t : run.timelines) all_timelines.push_back(std::move(t));
  }
  std::sort(issue_times.begin(), issue_times.end());
  IDEVAL_ASSIGN_OR_RETURN(QifStats qif, ComputeQif(issue_times));
  report.qif = qif.qif / std::max(1, spec.num_users);
  for (const auto& t : all_timelines) report.queries_executed += !t.skipped;
  report.queries_suppressed =
      report.queries_generated - report.queries_executed;
  const LcvStats lcv = ComputeCrossfilterLcv(all_timelines);
  report.lcv_fraction = lcv.ViolationFraction();
  const Summary latency = PerceivedLatencySummary(all_timelines);
  report.median_latency_ms = latency.median();
  report.p90_latency_ms = latency.Quantile(0.9);
  report.max_latency_ms = latency.max();
  report.throughput_qps = ComputeThroughput(all_timelines);
  report.mean_session_s = session_s / spec.num_users;
  report.mean_interactions_per_user = interactions / spec.num_users;
  return report;
}

/// Live-server mode: the same trace-derived interaction workload, but
/// driven through the multi-threaded `QueryServer` by one client thread
/// per user with trace-faithful (compressed) inter-arrival sleeps.
Result<WorkloadReport> RunServeWorkload(const WorkloadSpec& spec,
                                        WorkloadReport report) {
  if (spec.interface_kind == InterfaceKind::kInertialScroll) {
    return Status::InvalidArgument(
        "live-server mode (serve_threads > 0) supports the crossfilter and "
        "explore interfaces; scroll loading is simulation-only");
  }
  const int clients =
      spec.serve_clients > 0 ? spec.serve_clients : spec.num_users;

  EngineOptions eopts;
  eopts.profile = spec.engine;
  eopts.enable_zone_maps = spec.engine_zone_maps;
  Engine engine(eopts);
  std::unique_ptr<ShardedEngine> sharded;
  if (spec.serve_shards > 1) {
    ShardedEngineOptions shopts;
    shopts.num_shards = spec.serve_shards;
    shopts.engine_options = eopts;
    IDEVAL_ASSIGN_OR_RETURN(sharded, ShardedEngine::Create(shopts));
  }
  // Workload tables go to the sharded backend (range-partitioned) when
  // serve_shards > 1, to the single engine otherwise.
  auto register_table = [&](const TablePtr& table) -> Status {
    if (sharded != nullptr) return sharded->PartitionTable(table);
    return engine.RegisterTable(table);
  };

  Rng rng(spec.seed);
  std::vector<std::vector<QueryGroup>> client_groups;
  double session_s = 0.0;
  double interactions = 0.0;

  if (spec.interface_kind == InterfaceKind::kCrossfilter) {
    RoadNetworkOptions dopts;
    if (spec.rows > 0) dopts.num_rows = spec.rows;
    IDEVAL_ASSIGN_OR_RETURN(TablePtr road, MakeRoadNetworkTable(dopts));
    IDEVAL_RETURN_NOT_OK(register_table(road));
    for (int c = 0; c < clients; ++c) {
      IDEVAL_ASSIGN_OR_RETURN(CrossfilterView view,
                              CrossfilterView::Make(road, {"x", "y", "z"}));
      CrossfilterUserParams params;
      params.user_id = c;
      params.device = spec.device;
      params.num_moves = spec.crossfilter_moves;
      params.seed = rng.Next();
      IDEVAL_ASSIGN_OR_RETURN(CrossfilterTrace trace,
                              GenerateCrossfilterTrace(params, &view));
      IDEVAL_ASSIGN_OR_RETURN(CrossfilterView replay,
                              CrossfilterView::Make(road, {"x", "y", "z"}));
      IDEVAL_ASSIGN_OR_RETURN(std::vector<QueryGroup> groups,
                              BuildQueryGroups(&replay, trace.events));
      report.interaction_events += static_cast<int64_t>(trace.events.size());
      session_s += trace.session_duration.seconds();
      interactions += static_cast<double>(trace.events.size());
      for (const auto& g : groups) {
        report.queries_generated += static_cast<int64_t>(g.queries.size());
      }
      client_groups.push_back(std::move(groups));
    }
  } else {
    ListingsOptions dopts;
    if (spec.rows > 0) dopts.num_rows = spec.rows;
    IDEVAL_ASSIGN_OR_RETURN(TablePtr listings, MakeListingsTable(dopts));
    IDEVAL_RETURN_NOT_OK(register_table(listings));
    auto users = SampleExploreUsers(clients, &rng);
    for (auto& user : users) {
      user.min_session =
          Duration::Seconds(spec.explore_session_minutes * 60);
      CompositeInterface::Options copts;
      copts.table = listings->name();
      copts.destinations = {{"Birmingham", 33.52, -86.80, 12},
                            {"Atlanta", 33.75, -84.39, 12},
                            {"Nashville", 36.16, -86.78, 11},
                            {"Memphis", 35.15, -90.05, 12}};
      CompositeInterface ui(MapWidget(32.0, -86.0, 11), std::move(copts));
      IDEVAL_ASSIGN_OR_RETURN(ExploreTrace trace,
                              GenerateExploreTrace(user, &ui));
      session_s += trace.session_duration.seconds();
      interactions += static_cast<double>(trace.phases.size());
      report.interaction_events += static_cast<int64_t>(trace.phases.size());
      std::vector<QueryGroup> groups;
      groups.reserve(trace.phases.size());
      for (const auto& phase : trace.phases) {
        QueryGroup g;
        g.issue_time = phase.request.time;
        g.queries.push_back(phase.request.query);
        groups.push_back(std::move(g));
        ++report.queries_generated;
      }
      client_groups.push_back(std::move(groups));
    }
  }

  ServerOptions sopts;
  sopts.num_workers = spec.serve_threads;
  sopts.max_queue_per_session = spec.serve_queue_cap;
  sopts.policy = spec.admission;
  sopts.adaptive_admission = spec.adaptive_admission;
  sopts.enable_shared_cache = spec.serve_shared_cache;
  sopts.enable_tracing = spec.serve_trace;
  sopts.trace_buffer_spans = spec.serve_trace_buffer_spans;
  sopts.slow_query_ms = spec.serve_slow_query_ms;
  sopts.enable_metrics = spec.serve_metrics;
  sopts.stats_poll_ms = spec.serve_stats_poll_ms;
  sopts.enable_progressive = spec.serve_progressive;
  // Spec contract is "<= 0 derives the budget from inter-arrival"; the
  // server expresses the same as exactly 0, so fold negatives in.
  sopts.progressive_deadline_ms = std::max(0.0, spec.serve_deadline_ms);
  if (spec.serve_slo) {
    sopts.enable_slo = true;
    sopts.slo_lcv_target = spec.serve_slo_lcv_target;
    sopts.slo_latency_p90_ms = std::max(0.0, spec.serve_slo_latency_p90_ms);
    sopts.slo_shed_target = std::max(0.0, spec.serve_slo_shed_target);
    sopts.slo_admission = spec.serve_slo_admission;
    const double scale = spec.serve_slo_window_scale;
    sopts.slo_fast_window_s *= scale;
    sopts.slo_fast_confirm_window_s *= scale;
    sopts.slo_slow_window_s *= scale;
    sopts.slo_slow_confirm_window_s *= scale;
    sopts.slo_clear_hold_s *= scale;
  }
  if (spec.throttle_interval > Duration::Zero()) {
    sopts.throttle_min_interval = spec.throttle_interval;
  }
  IDEVAL_ASSIGN_OR_RETURN(std::unique_ptr<QueryServer> server,
                          sharded != nullptr
                              ? QueryServer::Create(sharded.get(), sopts)
                              : QueryServer::Create(&engine, sopts));
  ServerStatsSnapshot snap;
  double wall_seconds = 0.0;
  if (spec.serve_net) {
    // Over-the-wire mode: front the server with the socket layer and
    // replay the same traces through real loopback connections.
    NetServerOptions nopts;
    nopts.port = spec.serve_net_port;
    IDEVAL_ASSIGN_OR_RETURN(std::unique_ptr<NetServer> net,
                            NetServer::Start(server.get(), nopts));
    NetLoadDriverOptions nlopts;
    nlopts.port = net->port();
    nlopts.time_compression = spec.time_compression;
    IDEVAL_ASSIGN_OR_RETURN(NetLoadReport nload,
                            RunNetLoadDriver(client_groups, nlopts));
    server->Drain();
    snap = server->Snapshot();
    net->FillSnapshot(&snap);
    net->Stop();
    wall_seconds = nload.wall_seconds;
  } else {
    LoadDriverOptions lopts;
    lopts.time_compression = spec.time_compression;
    IDEVAL_ASSIGN_OR_RETURN(
        LoadReport load, RunLoadDriver(server.get(), client_groups, lopts));
    snap = load.snapshot;
    wall_seconds = load.wall_seconds;
  }
  server->Stop();

  report.queries_executed = snap.totals.queries_executed;
  report.queries_suppressed =
      report.queries_generated - snap.totals.queries_executed;
  report.groups_skipped = snap.totals.GroupsShed();
  report.groups_rejected = snap.totals.groups_rejected;
  const double wall = std::max(1e-9, wall_seconds);
  report.qif = static_cast<double>(snap.totals.groups_submitted) / wall /
               std::max(1, clients);
  report.lcv_fraction = snap.lcv_fraction;
  report.median_latency_ms = snap.latency_p50_ms;
  report.p90_latency_ms = snap.latency_p90_ms;
  report.max_latency_ms = snap.latency_max_ms;
  report.throughput_qps =
      static_cast<double>(snap.totals.queries_executed) / wall;
  report.mean_session_s = session_s / std::max(1, clients);
  report.mean_interactions_per_user = interactions / std::max(1, clients);
  return report;
}

}  // namespace

Result<WorkloadReport> RunWorkload(const WorkloadSpec& spec) {
  WorkloadReport report;
  report.spec = spec;
  if (spec.serve_threads > 0) {
    return RunServeWorkload(spec, std::move(report));
  }
  switch (spec.interface_kind) {
    case InterfaceKind::kCrossfilter:
      return RunCrossfilterWorkload(spec, std::move(report));
    case InterfaceKind::kInertialScroll:
      return RunScrollWorkload(spec, std::move(report));
    case InterfaceKind::kCompositeExplore:
      return RunExploreWorkload(spec, std::move(report));
  }
  return Status::Internal("unreachable interface kind");
}

std::string WorkloadReport::ToText() const {
  TextTable table({"metric", "value"});
  table.AddRow({"workload", spec.name});
  table.AddRow({"interface / device / engine",
                StrFormat("%s / %s / %s",
                          InterfaceKindToString(spec.interface_kind),
                          DeviceTypeToString(spec.device),
                          EngineProfileToString(spec.engine))});
  table.AddRow({"users", StrFormat("%d", spec.num_users)});
  table.AddRow({"interaction events",
                StrFormat("%lld", static_cast<long long>(
                                      interaction_events))});
  table.AddRow({"queries generated / executed / suppressed",
                StrFormat("%lld / %lld / %lld",
                          static_cast<long long>(queries_generated),
                          static_cast<long long>(queries_executed),
                          static_cast<long long>(queries_suppressed))});
  if (groups_skipped > 0) {
    table.AddRow({"groups skipped by backend",
                  StrFormat("%lld", static_cast<long long>(groups_skipped))});
  }
  if (groups_rejected > 0) {
    table.AddRow({"groups rejected (backpressure)",
                  StrFormat("%lld",
                            static_cast<long long>(groups_rejected))});
  }
  table.AddRow({"QIF (per user)", StrFormat("%.1f queries/s", qif)});
  table.AddRow({"LCV fraction", StrFormat("%.3f", lcv_fraction)});
  table.AddRow({"perceived latency median / p90 / max (ms)",
                StrFormat("%.1f / %.1f / %.1f", median_latency_ms,
                          p90_latency_ms, max_latency_ms)});
  table.AddRow({"throughput", StrFormat("%.1f queries/s", throughput_qps)});
  if (stalls.has_value()) {
    table.AddRow({"scroll stalls",
                  StrFormat("%lld", static_cast<long long>(*stalls))});
    table.AddRow({"mean stall", StrFormat("%.1f ms", *mean_stall_ms)});
  }
  table.AddRow({"mean session", StrFormat("%.1f s", mean_session_s)});
  table.AddRow({"mean interactions/user",
                StrFormat("%.0f", mean_interactions_per_user)});
  return table.ToString();
}

}  // namespace ideval
