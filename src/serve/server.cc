#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/build_info.h"
#include "common/text_table.h"

namespace ideval {

const char* SubmitDispositionToString(SubmitDisposition d) {
  switch (d) {
    case SubmitDisposition::kEnqueued:
      return "enqueued";
    case SubmitDisposition::kCoalesced:
      return "coalesced";
    case SubmitDisposition::kThrottled:
      return "throttled";
    case SubmitDisposition::kRejected:
      return "rejected";
  }
  return "unknown";
}

Status QueryServer::ValidateOptions(const ServerOptions& options) {
  if (options.num_workers < 1) {
    return Status::InvalidArgument(
        StrFormat("num_workers must be >= 1, got %d", options.num_workers));
  }
  if (options.max_queue_per_session < 1) {
    return Status::InvalidArgument(
        StrFormat("max_queue_per_session must be >= 1, got %d",
                  options.max_queue_per_session));
  }
  if (options.throttle_min_interval < Duration::Zero()) {
    return Status::InvalidArgument("throttle_min_interval must be >= 0");
  }
  if (options.debounce_quiet < Duration::Zero()) {
    return Status::InvalidArgument("debounce_quiet must be >= 0");
  }
  if (options.admission.window <= Duration::Zero()) {
    return Status::InvalidArgument("admission window must be > 0");
  }
  if (options.enable_shared_cache && options.shared_cache_bytes < 1) {
    return Status::InvalidArgument("shared_cache_bytes must be >= 1");
  }
  if (options.enable_shared_cache && options.shared_cache_shards < 1) {
    return Status::InvalidArgument("shared_cache_shards must be >= 1");
  }
  if (options.enable_progressive && options.progressive_deadline_ms < 0.0) {
    return Status::InvalidArgument(
        "progressive_deadline_ms must be >= 0 (0 derives the budget from "
        "the session inter-arrival interval)");
  }
  if (options.enable_progressive &&
      !(options.progressive_confidence > 0.0 &&
        options.progressive_confidence < 1.0)) {
    return Status::InvalidArgument(
        "progressive_confidence must lie in (0, 1)");
  }
  if (options.shard_workers < 0) {
    return Status::InvalidArgument(
        StrFormat("shard_workers must be >= 0, got %d",
                  options.shard_workers));
  }
  if (options.enable_tracing && options.trace_buffer_spans < 1) {
    return Status::InvalidArgument(
        StrFormat("trace_buffer_spans must be >= 1, got %lld",
                  static_cast<long long>(options.trace_buffer_spans)));
  }
  if (options.stats_poll_ms > 0.0 && options.stats_ring_samples < 1) {
    return Status::InvalidArgument(
        StrFormat("stats_ring_samples must be >= 1, got %lld",
                  static_cast<long long>(options.stats_ring_samples)));
  }
  if (options.enable_slo) {
    if (options.stats_poll_ms <= 0.0) {
      return Status::InvalidArgument(
          "enable_slo requires stats_poll_ms > 0 (SLO evaluation rides "
          "the stats poller)");
    }
    if (!(options.slo_lcv_target > 0.0 && options.slo_lcv_target < 1.0)) {
      return Status::InvalidArgument("slo_lcv_target must lie in (0, 1)");
    }
    if (options.slo_shed_target >= 1.0) {
      return Status::InvalidArgument("slo_shed_target must be < 1");
    }
    if (options.slo_fast_window_s <= 0.0 ||
        options.slo_fast_confirm_window_s <= 0.0 ||
        options.slo_slow_window_s <= 0.0 ||
        options.slo_slow_confirm_window_s <= 0.0) {
      return Status::InvalidArgument("SLO windows must all be > 0");
    }
    if (options.slo_critical_burn <= 0.0 || options.slo_warn_burn <= 0.0) {
      return Status::InvalidArgument("SLO burn thresholds must be > 0");
    }
    if (options.slo_clear_hold_s < 0.0) {
      return Status::InvalidArgument("slo_clear_hold_s must be >= 0");
    }
    if (options.slo_flight_bundles < 1) {
      return Status::InvalidArgument("slo_flight_bundles must be >= 1");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    const Engine* engine, ServerOptions options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("QueryServer needs an engine");
  }
  return Start(engine, /*sharded=*/nullptr, std::move(options));
}

Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    const ShardedEngine* sharded, ServerOptions options) {
  if (sharded == nullptr) {
    return Status::InvalidArgument("QueryServer needs a sharded engine");
  }
  return Start(/*engine=*/nullptr, sharded, std::move(options));
}

Result<std::unique_ptr<QueryServer>> QueryServer::Start(
    const Engine* engine, const ShardedEngine* sharded,
    ServerOptions options) {
  IDEVAL_RETURN_NOT_OK(ValidateOptions(options));
  auto server = std::unique_ptr<QueryServer>(
      new QueryServer(engine, sharded, std::move(options)));
  QueryServer* s = server.get();
  if (sharded != nullptr) {
    const int shard_pool = s->options_.shard_workers > 0
                               ? s->options_.shard_workers
                               : sharded->num_shards();
    for (int i = 0; i < shard_pool; ++i) {
      s->shard_threads_.emplace_back([s] { s->ShardWorkerLoop(); });
    }
  }
  for (int i = 0; i < s->options_.num_workers; ++i) {
    s->workers_.emplace_back([s] { s->WorkerLoop(); });
  }
  if (s->options_.enable_progressive && s->options_.progressive_refine &&
      s->result_cache_ != nullptr) {
    s->refine_thread_ = std::thread([s] { s->RefineLoop(); });
  }
  // The poller starts last, once the server is fully serveable.
  if (s->poller_ != nullptr) s->poller_->Start();
  return server;
}

QueryServer::QueryServer(const Engine* engine, const ShardedEngine* sharded,
                         ServerOptions options)
    : engine_(engine),
      sharded_(sharded),
      options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()),
      controller_(sharded == nullptr
                      ? AdmissionController(options_.num_workers,
                                            options_.admission)
                      : AdmissionController(
                            options_.num_workers, sharded->num_shards(),
                            options_.shard_workers > 0
                                ? options_.shard_workers
                                : sharded->num_shards(),
                            options_.admission)),
      effective_policy_(options_.policy),
      metrics_(options_.admission.window) {
  cache_backend_ = [this](const Query& q, const TraceContext& trace,
                          uint64_t parent) {
    return sharded_ != nullptr ? ExecuteOneSharded(q, trace, parent)
                               : engine_->Execute(q);
  };
  if (options_.enable_shared_cache) {
    ResultCacheOptions copts;
    copts.byte_budget = options_.shared_cache_bytes;
    copts.num_shards = options_.shared_cache_shards;
    result_cache_ = std::make_unique<ResultCache>(copts);
  }
  if (options_.enable_tracing) {
    TraceOptions topts;
    topts.capacity_spans = options_.trace_buffer_spans;
    trace_ = std::make_unique<TraceBuffer>(topts);
    // Share the server's epoch so span timestamps line up with `Now()`.
    trace_->set_epoch(epoch_);
  }
  if (options_.slow_query_ms >= 0.0) {
    SlowQueryLogOptions sopts;
    sopts.threshold = Duration::MillisF(options_.slow_query_ms);
    slow_log_ = std::make_unique<SlowQueryLog>(sopts);
  }
  if (options_.enable_metrics) {
    mreg_ = options_.metrics_registry != nullptr
                ? options_.metrics_registry
                : &MetricsRegistry::Global();
    RegisterMetrics();
  }
  if (options_.enable_slo) {
    SloEngineOptions so;
    const auto apply_windows = [this](SloSpec* spec) {
      spec->fast_window_s = options_.slo_fast_window_s;
      spec->fast_confirm_window_s = options_.slo_fast_confirm_window_s;
      spec->slow_window_s = options_.slo_slow_window_s;
      spec->slow_confirm_window_s = options_.slo_slow_confirm_window_s;
      spec->critical_burn = options_.slo_critical_burn;
      spec->warn_burn = options_.slo_warn_burn;
      spec->clear_hold_s = options_.slo_clear_hold_s;
    };
    SloSpec lcv;
    lcv.name = "lcv";
    lcv.objective = SloObjective::kLcvFraction;
    lcv.target = options_.slo_lcv_target;
    apply_windows(&lcv);
    so.slos.push_back(lcv);
    if (options_.slo_latency_p90_ms > 0.0) {
      SloSpec lat;
      lat.name = "latency_p90";
      lat.objective = SloObjective::kLatencyDeadline;
      lat.target = 0.1;  // 10% of active polls may miss the deadline.
      lat.latency_deadline_ms = options_.slo_latency_p90_ms;
      apply_windows(&lat);
      so.slos.push_back(lat);
    }
    if (options_.slo_shed_target > 0.0) {
      SloSpec shed;
      shed.name = "shed_rate";
      shed.objective = SloObjective::kShedRate;
      shed.target = options_.slo_shed_target;
      apply_windows(&shed);
      so.slos.push_back(shed);
    }
    slo_ = std::make_unique<SloEngine>(so, mreg_);
    FlightRecorderOptions fopts;
    fopts.max_bundles = options_.slo_flight_bundles;
    flight_ = std::make_unique<FlightRecorder>(fopts, mreg_);
  }
  if (options_.stats_poll_ms > 0.0) {
    timeseries_ =
        std::make_unique<TimeSeriesRing>(options_.stats_ring_samples);
    poller_ = std::make_unique<StatsPoller>(
        Duration::MillisF(options_.stats_poll_ms),
        [this] { return SampleStats(); }, timeseries_.get(),
        slo_ != nullptr ? std::function<void(const StatsSample&)>(
                              [this](const StatsSample& sample) {
                                ObserveSample(sample);
                              })
                        : nullptr);
  }
}

void QueryServer::RegisterMetrics() {
  hot_.submitted = mreg_->RegisterCounter(
      "ideval_serve_groups_submitted_total",
      "Query groups submitted (admitted or not)");
  hot_.admitted = mreg_->RegisterCounter(
      "ideval_serve_groups_admitted_total",
      "Query groups past the admission door into a session queue");
  hot_.executed = mreg_->RegisterCounter(
      "ideval_serve_groups_executed_total",
      "Query groups that ran to completion");
  hot_.shed_stale = mreg_->RegisterCounter(
      "ideval_serve_groups_shed_stale_total",
      "Groups shed as stale (skip-stale dispatch or overflow)");
  hot_.shed_coalesced = mreg_->RegisterCounter(
      "ideval_serve_groups_shed_coalesced_total",
      "Groups superseded by a newer debounced submission");
  hot_.shed_throttled = mreg_->RegisterCounter(
      "ideval_serve_groups_shed_throttled_total",
      "Groups shed at the door by the throttle policy");
  hot_.rejected = mreg_->RegisterCounter(
      "ideval_serve_groups_rejected_total",
      "Groups pushed back (queue full or hard overload)");
  hot_.queries_executed = mreg_->RegisterCounter(
      "ideval_serve_queries_executed_total",
      "Successful queries inside executed groups");
  hot_.queries_failed = mreg_->RegisterCounter(
      "ideval_serve_queries_failed_total",
      "Failed queries inside executed groups");
  hot_.cache_hits = mreg_->RegisterCounter(
      "ideval_serve_cache_hits_total",
      "Queries answered by the shared result cache");
  hot_.lcv_violations = mreg_->RegisterCounter(
      "ideval_serve_lcv_violations_total",
      "Executed groups that finished after a newer submission (LCV)");
  hot_.latency_ms = mreg_->RegisterHistogram(
      "ideval_serve_group_latency_ms",
      "Perceived latency of executed groups, submit to done (ms)");
  hot_.service_ms = mreg_->RegisterHistogram(
      "ideval_serve_group_service_ms",
      "Backend busy time of executed groups, dispatch to done (ms)");
  // Registered unconditionally (zeros when progressive serving is off)
  // so the exposition schema is stable across server configurations.
  hot_.prog_passes = mreg_->RegisterCounter(
      "ideval_progressive_passes_total",
      "Block-incremental passes run by progressive executions");
  hot_.prog_deadline_hits = mreg_->RegisterCounter(
      "ideval_progressive_deadline_hits_total",
      "Queries whose deadline fired before a full scan (approximate)");
  hot_.prog_refinements = mreg_->RegisterCounter(
      "ideval_progressive_refinements_total",
      "Background exact refinements published into the shared cache");
  hot_.prog_rows_fraction = mreg_->RegisterHistogram(
      "ideval_progressive_rows_fraction",
      "Fraction of table rows resolved when a progressive query returned");
  hot_.morsel_morsels = mreg_->RegisterCounter(
      "ideval_morsel_morsels_total",
      "Morsels claimed from shared work queues by shard workers");
  hot_.morsel_queries = mreg_->RegisterCounter(
      "ideval_morsel_queries_total",
      "Queries scattered to the shard pool with a shared morsel queue");
  gauges_.qif_qps = mreg_->RegisterGauge(
      "ideval_serve_qif_qps", "Offered load over the sliding window");
  gauges_.throughput_window_qps = mreg_->RegisterGauge(
      "ideval_serve_throughput_window_qps",
      "Executed queries per second over the sliding window");
  gauges_.queue_depth = mreg_->RegisterGauge(
      "ideval_serve_queue_depth", "Groups pending across all sessions");
  gauges_.lcv_fraction = mreg_->RegisterGauge(
      "ideval_serve_lcv_fraction", "LCV violations / executed groups");
  gauges_.load_factor = mreg_->RegisterGauge(
      "ideval_serve_load_factor", "Offered / capacity (Fig. 3 ratio)");
  gauges_.sessions_open = mreg_->RegisterGauge(
      "ideval_serve_sessions_open", "Currently open sessions");
  gauges_.cache_hit_rate = mreg_->RegisterGauge(
      "ideval_serve_cache_hit_rate",
      "Shared result cache hit rate (-1 when the cache is off)");
  gauges_.trace_dropped = mreg_->RegisterGauge(
      "ideval_serve_trace_dropped",
      "Spans overwritten in the trace ring (0 when tracing is off)");
  gauges_.kernel_isa_level = mreg_->RegisterGauge(
      "ideval_kernel_isa_level",
      "Resolved SIMD kernel ISA (0 scalar, 1 sse4.2, 2 avx2, 3 avx512)");
  gauges_.kernel_isa_level->Set(static_cast<double>(KernelIsaLevel(
      engine_ != nullptr ? engine_->kernel_isa() : sharded_->kernel_isa())));
  // Build identity (docs/metrics.md): the registry is label-less, so the
  // identity rides the help string and the value is the constant 1 —
  // scrapers read the HELP line, dashboards can still join on presence.
  Gauge* build_info = mreg_->RegisterGauge(
      "ideval_build_info",
      "Build identity (constant 1): " + BuildInfoText() + " isa=" +
          KernelIsaToString(engine_ != nullptr ? engine_->kernel_isa()
                                               : sharded_->kernel_isa()));
  build_info->Set(1.0);
}

void QueryServer::UpdateGauges(const ServerStatsSnapshot& snap) {
  if (gauges_.qif_qps == nullptr) return;
  gauges_.qif_qps->Set(snap.qif_qps);
  gauges_.throughput_window_qps->Set(snap.throughput_window_qps);
  gauges_.queue_depth->Set(static_cast<double>(snap.groups_queued));
  gauges_.lcv_fraction->Set(snap.lcv_fraction);
  gauges_.load_factor->Set(snap.load.load_factor);
  gauges_.sessions_open->Set(static_cast<double>(snap.sessions_open));
  gauges_.cache_hit_rate->Set(
      snap.result_cache_enabled ? snap.result_cache.HitRate() : -1.0);
  gauges_.trace_dropped->Set(
      snap.tracing_enabled ? static_cast<double>(snap.trace_buffer.dropped)
                           : 0.0);
}

QueryServer::~QueryServer() { Stop(); }

SimTime QueryServer::Now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return SimTime::FromMicros(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count());
}

std::chrono::steady_clock::time_point QueryServer::ToSteady(SimTime t) const {
  return epoch_ + std::chrono::microseconds(t.micros());
}

uint64_t QueryServer::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.Open(options_.admission.window)->id();
}

Status QueryServer::CloseSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ServeSession* s = sessions_.Get(session_id);
  if (s == nullptr) {
    return Status::NotFound(
        StrFormat("no session %llu",
                  static_cast<unsigned long long>(session_id)));
  }
  s->set_closed(true);
  return Status::OK();
}

void QueryServer::TraceAdmission(const TraceContext& trace,
                                 const SubmitOutcome& out, SimTime now,
                                 int64_t queue_depth) {
  if (!trace.enabled()) return;
  RecordSpan(trace, SpanKind::kAdmission, trace.buffer->NewSpanId(),
             trace.root_span_id, now.micros(), now.micros(),
             static_cast<uint32_t>(out.disposition),
             static_cast<int64_t>(out.load.state), queue_depth,
             static_cast<int64_t>(out.load.load_factor * 1000.0));
  // A door shed is the group's terminal state: close the root span too.
  if (out.disposition == SubmitDisposition::kThrottled ||
      out.disposition == SubmitDisposition::kRejected) {
    const GroupTerminal terminal =
        out.disposition == SubmitDisposition::kThrottled
            ? GroupTerminal::kShedThrottled
            : GroupTerminal::kRejected;
    RecordSpan(trace, SpanKind::kGroup, trace.root_span_id,
               /*parent_span_id=*/0, now.micros(), now.micros(),
               static_cast<uint32_t>(terminal));
  }
}

namespace {

/// Builds the terminal report for a group shed after admission and hands
/// it to the group's callback, if any. Caller holds the server lock (the
/// callback contract, see `GroupCompletionFn`).
void NotifyShed(PendingGroup* group, uint64_t session_id,
                GroupTerminal terminal, SimTime now) {
  if (!group->on_complete) return;
  GroupCompletion done;
  done.session_id = session_id;
  done.seq = group->seq;
  done.trace_id = group->trace.trace_id;
  done.root_span_id = group->trace.root_span_id;
  done.terminal = terminal;
  done.latency = now - group->submit_time;
  group->on_complete(std::move(done));
  group->on_complete = nullptr;
}

}  // namespace

Result<SubmitOutcome> QueryServer::Submit(uint64_t session_id,
                                          std::vector<Query> queries) {
  return Submit(session_id, std::move(queries), nullptr);
}

Result<SubmitOutcome> QueryServer::Submit(uint64_t session_id,
                                          std::vector<Query> queries,
                                          GroupCompletionFn on_complete) {
  return Submit(session_id, std::move(queries), std::move(on_complete),
                /*adopted_trace_id=*/0);
}

Result<SubmitOutcome> QueryServer::Submit(uint64_t session_id,
                                          std::vector<Query> queries,
                                          GroupCompletionFn on_complete,
                                          uint64_t adopted_trace_id,
                                          bool capture_results) {
  if (queries.empty()) {
    return Status::InvalidArgument("Submit: empty query group");
  }
  const SimTime now = Now();
  metrics_.RecordSubmit(now);

  std::lock_guard<std::mutex> lock(mu_);
  ServeSession* s = sessions_.Get(session_id);
  if (s == nullptr) {
    return Status::NotFound(
        StrFormat("no session %llu",
                  static_cast<unsigned long long>(session_id)));
  }
  if (s->closed()) {
    return Status::FailedPrecondition(
        StrFormat("session %llu is closed",
                  static_cast<unsigned long long>(session_id)));
  }

  // The progressive deadline derives from the session's inter-arrival
  // interval — the LCV budget: a result is useful until the user's next
  // interaction. Read *before* RecordSubmit stamps this submission.
  SimTime deadline;
  if (options_.enable_progressive) {
    // No floor: a sub-millisecond inter-arrival (a fast drag) means a
    // sub-millisecond budget. The executor always completes at least one
    // pass, so a tiny — even already-expired — budget still yields a
    // usable approximation instead of a late exact answer.
    Duration budget =
        options_.progressive_deadline_ms > 0.0
            ? Duration::MillisF(options_.progressive_deadline_ms)
            : s->InterArrival(now).value_or(Duration::Millis(100));
    if (budget < Duration::Zero()) budget = Duration::Zero();
    deadline = now + budget;
  }

  SubmitOutcome out;
  out.seq = s->RecordSubmit(now);
  if (hot_.submitted != nullptr) hot_.submitted->Increment();
  controller_.OnSubmit(now);
  out.load = controller_.Assess(now);
  if (options_.adaptive_admission) {
    // Fig. 3 as a control loop: shed stale work while overwhelmed, go
    // back to the configured policy once execution catches up.
    effective_policy_ = out.load.state == LoadState::kOverloaded
                            ? AdmissionPolicy::kSkipStale
                            : options_.policy;
  }

  // The trace handle the group carries through its whole pipeline; a
  // disabled (null-buffer) context when tracing is off. A nonzero
  // adopted id (wire-level propagation) replaces the fresh trace id so
  // the pipeline spans join the client's trace.
  TraceContext trace = MakeTraceContext(trace_.get(), session_id);
  if (trace.enabled() && adopted_trace_id != 0) {
    trace.trace_id = adopted_trace_id;
  }

  if (out.load.reject) {
    ++s->counters().groups_rejected;
    if (hot_.rejected != nullptr) hot_.rejected->Increment();
    out.disposition = SubmitDisposition::kRejected;
    TraceAdmission(trace, out, now,
                   static_cast<int64_t>(s->queue().size()));
    return out;
  }

  SessionCounters& c = s->counters();
  const size_t cap = static_cast<size_t>(options_.max_queue_per_session);
  switch (effective_policy_) {
    case AdmissionPolicy::kThrottle:
      if (s->last_admitted().has_value() &&
          now - *s->last_admitted() < options_.throttle_min_interval) {
        ++c.groups_shed_throttled;
        if (hot_.shed_throttled != nullptr) hot_.shed_throttled->Increment();
        out.disposition = SubmitDisposition::kThrottled;
        TraceAdmission(trace, out, now,
                       static_cast<int64_t>(s->queue().size()));
        return out;
      }
      if (s->queue().size() >= cap) {
        ++c.groups_rejected;
        if (hot_.rejected != nullptr) hot_.rejected->Increment();
        out.disposition = SubmitDisposition::kRejected;
        TraceAdmission(trace, out, now,
                       static_cast<int64_t>(s->queue().size()));
        return out;
      }
      s->set_last_admitted(now);
      break;
    case AdmissionPolicy::kDebounce:
      // Newest-wins coalescing: anything still pending is superseded.
      if (!s->queue().empty()) {
        for (PendingGroup& old : s->queue()) {
          // Terminal state for the superseded groups: their root spans
          // close here, never having reached a worker.
          RecordSpan(old.trace, SpanKind::kGroup, old.trace.root_span_id,
                     /*parent_span_id=*/0, old.submit_time.micros(),
                     now.micros(),
                     static_cast<uint32_t>(GroupTerminal::kShedCoalesced));
          NotifyShed(&old, session_id, GroupTerminal::kShedCoalesced, now);
        }
        c.groups_shed_coalesced +=
            static_cast<int64_t>(s->queue().size());
        if (hot_.shed_coalesced != nullptr) {
          hot_.shed_coalesced->Increment(
              static_cast<int64_t>(s->queue().size()));
        }
        s->queue().clear();
        out.disposition = SubmitDisposition::kCoalesced;
      }
      break;
    case AdmissionPolicy::kFifo:
      if (s->queue().size() >= cap) {
        ++c.groups_rejected;
        if (hot_.rejected != nullptr) hot_.rejected->Increment();
        out.disposition = SubmitDisposition::kRejected;
        TraceAdmission(trace, out, now,
                       static_cast<int64_t>(s->queue().size()));
        return out;
      }
      break;
    case AdmissionPolicy::kSkipStale:
      if (s->queue().size() >= cap) {
        // Shed the stalest pending group instead of pushing back.
        PendingGroup& victim = s->queue().front();
        RecordSpan(victim.trace, SpanKind::kGroup,
                   victim.trace.root_span_id, /*parent_span_id=*/0,
                   victim.submit_time.micros(), now.micros(),
                   static_cast<uint32_t>(GroupTerminal::kShedStale));
        NotifyShed(&victim, session_id, GroupTerminal::kShedStale, now);
        s->queue().pop_front();
        ++c.groups_shed_stale;
        if (hot_.shed_stale != nullptr) hot_.shed_stale->Increment();
      }
      break;
  }

  PendingGroup g;
  g.seq = out.seq;
  g.submit_time = now;
  g.trace = trace;
  g.queries = std::move(queries);
  g.on_complete = std::move(on_complete);
  g.capture_results = capture_results;
  g.deadline = deadline;
  s->queue().push_back(std::move(g));
  ++c.groups_admitted;
  if (hot_.admitted != nullptr) hot_.admitted->Increment();
  s->NoteQueueDepth(static_cast<int64_t>(s->queue().size()));
  TraceAdmission(trace, out, now, static_cast<int64_t>(s->queue().size()));
  work_cv_.notify_all();
  return out;
}

ServeSession* QueryServer::PickSession(SimTime now, SimTime* deadline,
                                       bool* has_deadline) {
  *has_deadline = false;
  const auto& all = sessions_.sessions();
  const size_t n = all.size();
  if (n == 0) return nullptr;
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (rr_cursor_ + k) % n;
    ServeSession* s = all[i].get();
    if (s->busy() || s->queue().empty()) continue;
    if (effective_policy_ == AdmissionPolicy::kDebounce) {
      const SimTime runnable_at = s->last_submit() + options_.debounce_quiet;
      if (now < runnable_at) {
        if (!*has_deadline || runnable_at < *deadline) {
          *deadline = runnable_at;
          *has_deadline = true;
        }
        continue;
      }
    }
    rr_cursor_ = (i + 1) % n;
    return s;
  }
  return nullptr;
}

PendingGroup QueryServer::PopGroup(ServeSession* session) {
  std::deque<PendingGroup>& q = session->queue();
  if (effective_policy_ == AdmissionPolicy::kSkipStale) {
    // Jump to the newest pending group; everything older is stale.
    if (q.size() > 1) {
      const SimTime now = Now();
      for (size_t i = 0; i + 1 < q.size(); ++i) {
        RecordSpan(q[i].trace, SpanKind::kGroup, q[i].trace.root_span_id,
                   /*parent_span_id=*/0, q[i].submit_time.micros(),
                   now.micros(),
                   static_cast<uint32_t>(GroupTerminal::kShedStale));
        NotifyShed(&q[i], session->id(), GroupTerminal::kShedStale, now);
      }
    }
    session->counters().groups_shed_stale +=
        static_cast<int64_t>(q.size()) - 1;
    if (hot_.shed_stale != nullptr) {
      hot_.shed_stale->Increment(static_cast<int64_t>(q.size()) - 1);
    }
    PendingGroup g = std::move(q.back());
    q.clear();
    return g;
  }
  PendingGroup g = std::move(q.front());
  q.pop_front();
  return g;
}

void QueryServer::ShardWorkerLoop() {
  std::unique_lock<std::mutex> lock(shard_mu_);
  for (;;) {
    shard_cv_.wait(lock,
                   [this] { return shard_stop_ || !shard_queue_.empty(); });
    // Drain before exiting so a group worker blocked on its partials is
    // never stranded by shutdown.
    if (shard_queue_.empty()) return;
    ShardTask task = shard_queue_.front();
    shard_queue_.pop_front();
    lock.unlock();

    const SimTime t0 = Now();
    Result<QueryResponse> r = sharded_->ExecuteSubtask(*task.subtask);
    const Duration wall = Now() - t0;
    if (r.ok() && r->stats.morsels_executed > 0) {
      morsels_executed_.fetch_add(r->stats.morsels_executed,
                                  std::memory_order_relaxed);
      if (hot_.morsel_morsels != nullptr) {
        hot_.morsel_morsels->Increment(r->stats.morsels_executed);
      }
    }
    if (task.trace.enabled()) {
      RecordSpan(task.trace, SpanKind::kShardExec,
                 task.trace.buffer->NewSpanId(), task.parent_span,
                 t0.micros(), (t0 + wall).micros(),
                 static_cast<uint32_t>(task.lane), task.subtask->shard,
                 r.ok() ? r->stats.blocks_scanned : 0,
                 r.ok() ? r->stats.blocks_pruned : 0);
    }
    {
      // Notify under the lock: the instant `remaining` hits zero the
      // dispatching worker may wake and destroy the group state, so no
      // touch of task.* may happen after the decrement outside done_mu.
      std::lock_guard<std::mutex> done(*task.done_mu);
      task.slot->result.emplace(std::move(r));
      task.slot->wall = wall;
      if (--*task.remaining == 0) task.done_cv->notify_one();
    }
    lock.lock();
  }
}

std::vector<QueryServer::ShardSlot> QueryServer::ScatterAndWait(
    const std::vector<const ShardedEngine::ShardPlan*>& plans,
    const TraceContext& trace, uint64_t parent_span,
    const std::function<void()>& on_queued) {
  std::vector<const ShardedEngine::Subtask*> subtasks;
  for (const ShardedEngine::ShardPlan* plan : plans) {
    if (!plan->subtasks.empty() && plan->subtasks[0].morsels != nullptr) {
      morsel_queries_.fetch_add(1, std::memory_order_relaxed);
      if (hot_.morsel_queries != nullptr) hot_.morsel_queries->Increment();
    }
    for (const auto& sub : plan->subtasks) subtasks.push_back(&sub);
  }
  std::vector<ShardSlot> slots(subtasks.size());
  // Completion state, on this worker's stack. Shard workers hold
  // pointers into it until the last decrement under done_mu, after which
  // the wait below returns and the state may be destroyed.
  std::mutex done_mu;
  std::condition_variable done_cv;
  int remaining = static_cast<int>(subtasks.size());
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    for (size_t i = 0; i < subtasks.size(); ++i) {
      ShardTask task;
      task.subtask = subtasks[i];
      task.slot = &slots[i];
      task.done_mu = &done_mu;
      task.done_cv = &done_cv;
      task.remaining = &remaining;
      task.trace = trace;
      task.parent_span = parent_span;
      task.lane = static_cast<int32_t>(i);
      shard_queue_.push_back(task);
    }
  }
  shard_cv_.notify_all();
  on_queued();
  std::unique_lock<std::mutex> done(done_mu);
  done_cv.wait(done, [&remaining] { return remaining == 0; });
  return slots;
}

QueryServer::GroupOutcome QueryServer::ExecuteGroupSharded(
    const std::vector<Query>& queries, const TraceContext& trace,
    std::vector<std::optional<QueryResultData>>* capture) {
  GroupOutcome out;
  if (capture != nullptr) capture->resize(queries.size());
  const SimTime t0 = Now();
  // Allocated up front so shard workers can parent their spans under the
  // execute window before it is recorded.
  const uint64_t execute_span_id =
      trace.enabled() ? trace.buffer->NewSpanId() : 0;

  // Plan every query into per-shard subtasks. Plan failures fail the
  // query immediately; its partials never reach the shard pool.
  struct PlannedQuery {
    size_t query_index = 0;  ///< Submission-order slot in `capture`.
    ShardedEngine::ShardPlan plan;
    size_t first_slot = 0;  ///< Index of its first partial in the slots.
  };
  std::vector<PlannedQuery> planned;
  planned.reserve(queries.size());
  size_t total_subtasks = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto plan = sharded_->Plan(queries[qi]);
    if (!plan.ok()) {
      ++out.failed;
      continue;
    }
    planned.push_back({qi, std::move(*plan), total_subtasks});
    total_subtasks += planned.back().plan.subtasks.size();
  }

  std::vector<const ShardedEngine::ShardPlan*> plans;
  for (const PlannedQuery& pq : planned) plans.push_back(&pq.plan);
  SimTime t1;
  std::vector<ShardSlot> slots =
      ScatterAndWait(plans, trace, execute_span_id, [&] {
        t1 = Now();  // Scatter done: all partials queued.
        RecordSpan(trace, SpanKind::kScatter,
                   trace.enabled() ? trace.buffer->NewSpanId() : 0,
                   trace.root_span_id, t0.micros(), t1.micros(),
                   /*detail=*/0, static_cast<int64_t>(total_subtasks),
                   static_cast<int64_t>(planned.size()), out.failed);
      });
  const SimTime t2 = Now();  // Execute done: last partial finished.
  if (trace.enabled()) {
    // The execute window's attrs aggregate the partials' work stats
    // (slots are still intact here; the merge below consumes them).
    int64_t tuples = 0, scanned = 0, pruned = 0;
    for (const ShardSlot& slot : slots) {
      if (!slot.result->ok()) continue;
      tuples += (*slot.result)->stats.tuples_scanned;
      scanned += (*slot.result)->stats.blocks_scanned;
      pruned += (*slot.result)->stats.blocks_pruned;
    }
    RecordSpan(trace, SpanKind::kExecute, execute_span_id,
               trace.root_span_id, t1.micros(), t2.micros(), /*detail=*/0,
               tuples, scanned, pruned);
  }

  // Merge each query's partials into the response an unsharded engine
  // would have produced.
  for (const PlannedQuery& pq : planned) {
    std::vector<QueryResponse> partials;
    partials.reserve(pq.plan.subtasks.size());
    bool partial_failed = false;
    for (size_t i = 0; i < pq.plan.subtasks.size(); ++i) {
      auto& result = slots[pq.first_slot + i].result;
      if (!result->ok()) {
        partial_failed = true;
        break;
      }
      partials.push_back(std::move(**result));
    }
    if (partial_failed) {
      ++out.failed;
      continue;
    }
    auto merged = sharded_->Merge(queries[pq.query_index], pq.plan,
                                  std::move(partials));
    if (merged.ok()) {
      ++out.executed;
      if (capture != nullptr) {
        (*capture)[pq.query_index] = std::move(merged->data);
      }
    } else {
      ++out.failed;
    }
  }
  const SimTime t3 = Now();
  RecordSpan(trace, SpanKind::kMerge,
             trace.enabled() ? trace.buffer->NewSpanId() : 0,
             trace.root_span_id, t2.micros(), t3.micros(), /*detail=*/0,
             out.executed, out.failed);

  out.scatter = t1 - t0;
  out.execute = t2 - t1;
  out.merge = t3 - t2;
  if (total_subtasks > 0) {
    Duration sum;
    for (const ShardSlot& slot : slots) sum = sum + slot.wall;
    out.shard_exec_mean =
        Duration::Micros(sum.micros() / static_cast<int64_t>(total_subtasks));
  }
  return out;
}

Result<QueryResponse> QueryServer::ExecuteOneSharded(
    const Query& query, const TraceContext& trace,
    uint64_t parent_span_id) {
  Span scatter(trace, SpanKind::kScatter, parent_span_id);
  IDEVAL_ASSIGN_OR_RETURN(ShardedEngine::ShardPlan plan,
                          sharded_->Plan(query));
  std::vector<ShardSlot> slots =
      ScatterAndWait({&plan}, trace, parent_span_id, [&] {
        scatter.SetAttrs(static_cast<int64_t>(plan.subtasks.size()), 1, 0);
        scatter.End();
      });

  std::vector<QueryResponse> partials;
  partials.reserve(slots.size());
  for (ShardSlot& slot : slots) {
    IDEVAL_RETURN_NOT_OK(slot.result->status());
    partials.push_back(std::move(**slot.result));
  }
  Span merge(trace, SpanKind::kMerge, parent_span_id);
  auto merged = sharded_->Merge(query, plan, std::move(partials));
  merge.SetAttrs(merged.ok() ? 1 : 0, merged.ok() ? 0 : 1);
  return merged;
}

QueryServer::ProgressiveGroupOutcome QueryServer::ExecuteGroupProgressive(
    const PendingGroup& group,
    std::vector<std::optional<QueryResultData>>* capture,
    std::vector<ApproxResultInfo>* approx) {
  ProgressiveGroupOutcome out;
  const size_t nq = group.queries.size();
  if (capture != nullptr) capture->resize(nq);
  if (approx != nullptr) approx->resize(nq);

  for (size_t qi = 0; qi < nq; ++qi) {
    const Query& query = group.queries[qi];
    // Split what is left of the group budget evenly across the queries
    // still to run — queue wait already spent its share, intentionally:
    // the deadline bounds what the *user* waits, not what the backend
    // works.
    const SimTime q_start = Now();
    Duration remaining = group.deadline - q_start;
    if (remaining < Duration::Zero()) remaining = Duration::Zero();
    const SimTime q_deadline =
        q_start + Duration::Micros(remaining.micros() /
                                   static_cast<int64_t>(nq - qi));

    // Probe the shared cache first (never inserting): a refined or
    // previously executed exact result beats any fresh approximation.
    if (result_cache_ != nullptr) {
      if (auto cached = result_cache_->Lookup(query)) {
        ++out.executed;
        ++out.hits;
        if (capture != nullptr) (*capture)[qi] = std::move(cached->data);
        continue;  // Exact result; default ApproxResultInfo is correct.
      }
    }

    const auto* hq = std::get_if<HistogramQuery>(&query);
    if (hq == nullptr) {
      // Non-histogram shapes pass through exactly — progressive
      // refinement applies to the aggregate views (docs/progressive.md).
      Span exec(group.trace, SpanKind::kExecute, group.trace.root_span_id);
      auto r = cache_backend_(query, group.trace, group.trace.root_span_id);
      if (r.ok()) {
        ++out.executed;
        exec.SetAttrs(r->stats.tuples_scanned, r->stats.blocks_scanned,
                      r->stats.blocks_pruned);
        if (capture != nullptr) (*capture)[qi] = std::move(r->data);
      } else {
        ++out.failed;
      }
      continue;
    }

    ProgressiveDeadlineOptions popts;
    popts.deadline = ToSteady(q_deadline);
    popts.confidence = options_.progressive_confidence;
    // Vary the block permutation's start per submission so repeated
    // interactions sample different prefixes.
    popts.seed = group.seq;

    Span exec(group.trace, SpanKind::kExecute, group.trace.root_span_id);
    const uint64_t exec_span = exec.id();
    auto record_passes = [&](const ProgressiveHistogramResult& r,
                             SimTime call_start, int64_t pass_base) {
      if (!group.trace.enabled()) return;
      for (size_t p = 0; p < r.pass_log.size(); ++p) {
        const ProgressivePassLog& pl = r.pass_log[p];
        RecordSpan(group.trace, SpanKind::kProgressivePass,
                   group.trace.buffer->NewSpanId(), exec_span,
                   call_start.micros() + pl.start_us,
                   call_start.micros() + pl.end_us,
                   static_cast<uint32_t>(pass_base + static_cast<int64_t>(p)),
                   pl.blocks, pl.rows, r.blocks_total);
      }
    };

    // Progressive partials: the engine itself, or one per shard of the
    // plan, run sequentially on this worker with every shard seeing the
    // same *absolute* deadline — shard K never gets budget shard 1
    // already spent. Partial estimates are independent cluster samples,
    // so counts add and variances (half-width squares) add.
    std::vector<std::pair<const Engine*, const HistogramQuery*>> parts;
    ShardedEngine::ShardPlan plan;  // Owns the shard queries in `parts`.
    bool ok = true;
    if (sharded_ == nullptr) {
      parts.emplace_back(engine_, hq);
    } else {
      auto planned = sharded_->Plan(query);
      if (!planned.ok()) {
        ++out.failed;
        continue;
      }
      plan = std::move(*planned);
      // A morsel plan partitions *work*, not data: every subtask sees
      // the full table, so one progressive partial already covers
      // everything — running all K would count each row K times.
      const size_t n_parts =
          !plan.subtasks.empty() && plan.subtasks[0].morsels != nullptr
              ? 1
              : plan.subtasks.size();
      for (size_t si = 0; si < n_parts && ok; ++si) {
        const auto& sub = plan.subtasks[si];
        const auto* shard_hq = std::get_if<HistogramQuery>(&sub.query);
        ok = shard_hq != nullptr;
        if (ok) parts.emplace_back(sharded_->shard(sub.shard), shard_hq);
      }
    }
    std::vector<double> counts;
    std::vector<double> hw2;
    double fraction_sum = 0.0;
    int64_t pass_base = 0;
    bool any_approx = false;
    QueryWorkStats stats;
    for (size_t pi = 0; pi < parts.size() && ok; ++pi) {
      const SimTime call_start = Now();
      auto r = parts[pi].first->ExecuteHistogramProgressive(
          *parts[pi].second, popts);
      if (!r.ok()) {
        ok = false;
        break;
      }
      record_passes(*r, call_start, pass_base);
      pass_base += r->passes;
      out.passes += r->passes;
      if (counts.empty()) {
        counts.assign(r->histogram.num_bins(), 0.0);
        hw2.assign(r->histogram.num_bins(), 0.0);
      }
      for (size_t i = 0; i < counts.size(); ++i) {
        counts[i] += r->histogram.counts()[i];
        hw2[i] += r->ci_half_width[i] * r->ci_half_width[i];
      }
      fraction_sum += r->fraction_rows;
      any_approx = any_approx || r->approximate;
      stats.tuples_scanned += r->stats.tuples_scanned;
      stats.blocks_scanned += r->stats.blocks_scanned;
      stats.blocks_pruned += r->stats.blocks_pruned;
    }
    if (!ok || parts.empty()) {
      ++out.failed;
      continue;
    }
    auto merged = FixedHistogram::FromCounts(hq->bin_lo, hq->bin_hi,
                                             std::move(counts));
    if (!merged.ok()) {
      ++out.failed;
      continue;
    }
    ++out.executed;
    exec.SetAttrs(stats.tuples_scanned, stats.blocks_scanned,
                  stats.blocks_pruned);
    ApproxResultInfo info;
    info.approximate = any_approx;
    // Shards are near-equal range partitions, so the unweighted mean of
    // per-shard fractions tracks the global one.
    info.fraction_rows = fraction_sum / static_cast<double>(parts.size());
    info.confidence = options_.progressive_confidence;
    info.passes = pass_base;
    info.ci_half_width.resize(hw2.size());
    for (size_t i = 0; i < hw2.size(); ++i) {
      info.ci_half_width[i] = std::sqrt(hw2[i]);
    }
    out.fractions.push_back(info.fraction_rows);
    if (info.approximate) {
      ++out.deadline_hits;
      out.refine.push_back(query);
    }
    if (capture != nullptr) (*capture)[qi] = std::move(*merged);
    if (approx != nullptr) (*approx)[qi] = std::move(info);
  }
  return out;
}

void QueryServer::RefineLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    refine_cv_.wait(lock,
                    [this] { return stop_ || !refine_queue_.empty(); });
    // Drain before exiting: tasks enqueued by the (already joined)
    // workers still get their exact run.
    if (refine_queue_.empty()) return;
    RefineTask task = std::move(refine_queue_.front());
    refine_queue_.pop_front();
    // Staleness: if the session has moved on to a newer interaction, the
    // refined answer would arrive contradicted — an LCV by construction.
    ServeSession* s = sessions_.Get(task.session_id);
    if (s == nullptr || s->next_seq() > task.seq + 1) {
      idle_cv_.notify_all();
      continue;
    }
    ++refine_in_flight_;
    lock.unlock();
    // The exact re-execution goes *through* the shared cache: the leader
    // insert is the publication — the next identical probe hits it.
    auto r = result_cache_->Execute(task.query, cache_backend_,
                                    TraceContext{}, /*parent_span_id=*/0);
    lock.lock();
    --refine_in_flight_;
    if (r.ok()) {
      ++progressive_refinements_;
      if (hot_.prog_refinements != nullptr) {
        hot_.prog_refinements->Increment();
      }
    }
    idle_cv_.notify_all();
  }
}

void QueryServer::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stop_) return;
    SimTime deadline;
    bool has_deadline = false;
    ServeSession* s = PickSession(Now(), &deadline, &has_deadline);
    if (s == nullptr) {
      if (has_deadline) {
        work_cv_.wait_until(lock, ToSteady(deadline));
      } else {
        work_cv_.wait(lock);
      }
      continue;
    }
    PendingGroup group = PopGroup(s);
    s->set_busy(true);
    ++in_flight_;
    lock.unlock();

    // --- Execution, outside the server lock.
    const SimTime start = Now();
    // The wait the user felt before any work began: submit -> dispatch.
    RecordSpan(group.trace, SpanKind::kQueueWait,
               group.trace.enabled() ? group.trace.buffer->NewSpanId() : 0,
               group.trace.root_span_id, group.submit_time.micros(),
               start.micros());
    int64_t executed = 0;
    int64_t failed = 0;
    int64_t hits = 0;
    // Result capture is keyed off the completion callback: the classic
    // fire-and-forget path never copies or holds result payloads.
    // Callbacks submitted with `capture_results` off (the CO recorder)
    // get timing without the copies either.
    const bool capture =
        static_cast<bool>(group.on_complete) && group.capture_results;
    std::vector<std::optional<QueryResultData>> results;
    if (capture) results.reserve(group.queries.size());
    std::vector<ApproxResultInfo> approx;
    GroupOutcome sharded_out;
    ProgressiveGroupOutcome prog;
    if (options_.enable_progressive) {
      // Deadline-bounded serving: every histogram runs block-incremental
      // passes against the group's deadline and may return approximate.
      prog = ExecuteGroupProgressive(group, capture ? &results : nullptr,
                                     capture ? &approx : nullptr);
      executed = prog.executed;
      failed = prog.failed;
      hits = prog.hits;
    } else if (result_cache_ != nullptr) {
      // Shared cache above either backend: one lookup per query; misses
      // run the backend (single-flight) inside the cache.
      for (const Query& query : group.queries) {
        auto r = result_cache_->Execute(query, cache_backend_, group.trace,
                                        group.trace.root_span_id);
        if (r.ok()) {
          ++executed;
          if (r->outcome != CacheOutcome::kMiss) ++hits;
          // Copy, not move: the cache retains its entry for later hits.
          if (capture) results.emplace_back(r->response.data);
        } else {
          ++failed;
          if (capture) results.emplace_back(std::nullopt);
        }
      }
    } else if (sharded_ != nullptr) {
      sharded_out = ExecuteGroupSharded(group.queries, group.trace,
                                        capture ? &results : nullptr);
      executed = sharded_out.executed;
      failed = sharded_out.failed;
    } else {
      for (const Query& query : group.queries) {
        Span exec(group.trace, SpanKind::kExecute,
                  group.trace.root_span_id);
        auto r = engine_->Execute(query);
        if (r.ok()) {
          ++executed;
          exec.SetAttrs(r->stats.tuples_scanned, r->stats.blocks_scanned,
                        r->stats.blocks_pruned);
          if (capture) results.emplace_back(std::move(r->data));
        } else {
          ++failed;
          if (capture) results.emplace_back(std::nullopt);
        }
      }
    }
    const SimTime finish = Now();
    metrics_.RecordGroupComplete(finish, finish - group.submit_time,
                                 finish - start, executed);
    if (hot_.latency_ms != nullptr) {
      hot_.latency_ms->Record((finish - group.submit_time).millis());
      hot_.service_ms->Record((finish - start).millis());
    }
    // With the shared cache the backend runs inside the cache, so phase
    // attribution collapses into `execute` even over a sharded backend
    // (progressive groups likewise run their shard partials inline).
    if (sharded_ != nullptr && result_cache_ == nullptr &&
        !options_.enable_progressive) {
      metrics_.RecordPhases(sharded_out.scatter, sharded_out.execute,
                            sharded_out.merge);
    } else {
      metrics_.RecordPhases(Duration::Zero(), finish - start,
                            Duration::Zero());
    }

    lock.lock();
    SessionCounters& c = s->counters();
    ++c.groups_executed;
    c.queries_executed += executed;
    c.queries_failed += failed;
    c.cache_hits += hits;
    const bool lcv = s->CheckLcvViolation(group.seq, finish);
    if (lcv) {
      ++c.lcv_violations;
    }
    if (hot_.executed != nullptr) {
      hot_.executed->Increment();
      hot_.queries_executed->Increment(executed);
      hot_.queries_failed->Increment(failed);
      hot_.cache_hits->Increment(hits);
      if (lcv) hot_.lcv_violations->Increment();
    }
    if (options_.enable_progressive) {
      progressive_passes_ += prog.passes;
      progressive_deadline_hits_ += prog.deadline_hits;
      for (double f : prog.fractions) progressive_fraction_sum_ += f;
      progressive_fraction_count_ +=
          static_cast<int64_t>(prog.fractions.size());
      if (hot_.prog_passes != nullptr) {
        hot_.prog_passes->Increment(prog.passes);
        hot_.prog_deadline_hits->Increment(prog.deadline_hits);
        for (double f : prog.fractions) hot_.prog_rows_fraction->Record(f);
      }
      if (!prog.refine.empty() && refine_thread_.joinable()) {
        for (Query& q : prog.refine) {
          refine_queue_.push_back(RefineTask{s->id(), group.seq,
                                             std::move(q)});
        }
        refine_cv_.notify_all();
      }
    }
    // The group reached its terminal state: close the root span opened at
    // Submit, and offer the interaction to the slow-query log.
    RecordSpan(group.trace, SpanKind::kGroup, group.trace.root_span_id,
               /*parent_span_id=*/0, group.submit_time.micros(),
               finish.micros(),
               static_cast<uint32_t>(GroupTerminal::kExecuted) |
                   (lcv ? kGroupLcvBit : 0u),
               executed, failed, hits);
    if (slow_log_ != nullptr) {
      SlowQueryRecord rec;
      rec.trace_id = group.trace.trace_id;
      rec.session_id = s->id();
      rec.seq = group.seq;
      rec.submit_us = group.submit_time.micros();
      rec.queue_ms = (start - group.submit_time).millis();
      rec.service_ms = (finish - start).millis();
      rec.latency_ms = (finish - group.submit_time).millis();
      rec.queries_ok = executed;
      rec.queries_failed = failed;
      rec.cache_hits = hits;
      rec.lcv = lcv;
      slow_log_->MaybeRecord(rec);
    }
    if (sharded_ != nullptr && result_cache_ == nullptr &&
        !options_.enable_progressive) {
      controller_.OnCompleteSharded(finish, finish - start,
                                    sharded_out.shard_exec_mean,
                                    sharded_out.merge);
    } else {
      // Cache hits complete in microseconds, so on cache-friendly
      // workloads the service EWMA shrinks and the capacity estimate
      // rises — admission control sees the cache as extra throughput.
      controller_.OnComplete(finish, finish - start);
    }
    if (group.on_complete) {
      GroupCompletion done;
      done.session_id = s->id();
      done.seq = group.seq;
      done.trace_id = group.trace.trace_id;
      done.root_span_id = group.trace.root_span_id;
      done.terminal = GroupTerminal::kExecuted;
      done.lcv = lcv;
      done.queries_executed = executed;
      done.queries_failed = failed;
      done.cache_hits = hits;
      done.queue_wait = start - group.submit_time;
      done.service = finish - start;
      done.latency = finish - group.submit_time;
      done.results = std::move(results);
      done.approx = std::move(approx);
      group.on_complete(std::move(done));
    }
    s->set_busy(false);
    --in_flight_;
    if (!s->queue().empty()) work_cv_.notify_all();
    idle_cv_.notify_all();
  }
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    if (in_flight_ > 0) return false;
    if (!refine_queue_.empty() || refine_in_flight_ > 0) return false;
    for (const auto& s : sessions_.sessions()) {
      if (!s->queue().empty()) return false;
    }
    return true;
  });
}

void QueryServer::Stop() {
  // Flip the draining signal first so the health check fails while the
  // joins below are still in flight (an HTTP endpoint may outlive us).
  stopping_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  // Poller first: its callback snapshots the server, so it must be gone
  // before any serving state is torn down.
  if (poller_ != nullptr) poller_->Stop();
  work_cv_.notify_all();
  // Group workers first: any in-flight sharded group still needs the
  // shard pool to finish its partials before its worker can exit.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // The refiner next: it drains its queue on stop and its exact
  // re-executions may still need the shard pool below.
  refine_cv_.notify_all();
  if (refine_thread_.joinable()) refine_thread_.join();
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    shard_stop_ = true;
  }
  shard_cv_.notify_all();
  for (auto& w : shard_threads_) {
    if (w.joinable()) w.join();
  }
}

ServerStatsSnapshot QueryServer::Snapshot(bool with_attribution) {
  const SimTime now = Now();
  ServerStatsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.num_workers = options_.num_workers;
    snap.num_shards = sharded_ != nullptr ? sharded_->num_shards() : 1;
    snap.shard_workers = static_cast<int>(shard_threads_.size());
    snap.configured_policy = options_.policy;
    snap.effective_policy = effective_policy_;
    snap.sessions_open = sessions_.OpenCount();
    snap.uptime_s = now.seconds();
    for (const auto& s : sessions_.sessions()) {
      SessionStatsRow row;
      row.session_id = s->id();
      row.counters = s->counters();
      row.qif_qps = s->QifQps(now);
      row.queued = static_cast<int64_t>(s->queue().size());
      row.queue_hwm = s->queue_hwm();
      snap.totals += row.counters;
      snap.groups_queued += row.queued;
      snap.queue_hwm = std::max(snap.queue_hwm, row.queue_hwm);
      snap.sessions.push_back(std::move(row));
    }
    if (options_.enable_progressive) {
      snap.progressive_enabled = true;
      snap.progressive_passes = progressive_passes_;
      snap.progressive_deadline_hits = progressive_deadline_hits_;
      snap.progressive_refinements = progressive_refinements_;
      snap.progressive_rows_fraction_mean =
          progressive_fraction_count_ > 0
              ? progressive_fraction_sum_ /
                    static_cast<double>(progressive_fraction_count_)
              : 0.0;
    }
    snap.load = controller_.Assess(now);
  }
  snap.kernel_isa = KernelIsaToString(
      engine_ != nullptr ? engine_->kernel_isa() : sharded_->kernel_isa());
  snap.morsel_execution = sharded_ != nullptr && sharded_->morsel_execution();
  snap.morsels_executed = morsels_executed_.load(std::memory_order_relaxed);
  snap.morsel_queries = morsel_queries_.load(std::memory_order_relaxed);
  if (result_cache_ != nullptr) {
    snap.result_cache_enabled = true;
    snap.result_cache = result_cache_->Stats();
  }
  if (trace_ != nullptr) {
    snap.tracing_enabled = true;
    snap.trace_buffer = trace_->Stats();
    if (with_attribution) {
      snap.attribution_enabled = true;
      snap.attribution = ComputeAttribution(trace_->Snapshot());
    }
  }
  if (slow_log_ != nullptr) {
    snap.slow_log_enabled = true;
    snap.slow_queries_logged = slow_log_->logged();
  }
  if (slo_ != nullptr) {
    snap.slo_enabled = true;
    snap.slo_any_critical = slo_->any_critical();
    for (const SloStatus& st : slo_->Status()) {
      snap.slo_critical_transitions += st.critical_transitions;
      snap.slo_warn_transitions += st.warn_transitions;
    }
    if (flight_ != nullptr) snap.slo_bundles = flight_->captured();
  }
  metrics_.FillSnapshot(&snap, now);
  snap.throughput_qps =
      snap.uptime_s > 0.0
          ? static_cast<double>(snap.totals.queries_executed) / snap.uptime_s
          : 0.0;
  snap.lcv_fraction =
      snap.totals.groups_executed > 0
          ? static_cast<double>(snap.totals.lcv_violations) /
                static_cast<double>(snap.totals.groups_executed)
          : 0.0;
  if (mreg_ != nullptr) UpdateGauges(snap);
  return snap;
}

StatsSample QueryServer::SampleStats() {
  // No attribution: the poller calls this every period and must not pay
  // the O(spans) trace-buffer scan each time.
  const ServerStatsSnapshot snap = Snapshot(/*with_attribution=*/false);
  StatsSample s;
  s.t_s = snap.uptime_s;
  s.qif_qps = snap.qif_qps;
  s.throughput_window_qps = snap.throughput_window_qps;
  s.queue_depth = snap.groups_queued;
  s.lcv_fraction = snap.lcv_fraction;
  s.load_factor = snap.load.load_factor;
  s.load_state = static_cast<int32_t>(snap.load.state);
  s.cache_hit_rate =
      snap.result_cache_enabled ? snap.result_cache.HitRate() : -1.0;
  s.trace_dropped = snap.tracing_enabled ? snap.trace_buffer.dropped : 0;
  s.latency_p50_ms = snap.latency_p50_ms;
  s.latency_p90_ms = snap.latency_p90_ms;
  s.submitted = snap.totals.groups_submitted;
  s.executed = snap.totals.groups_executed;
  s.shed = snap.totals.GroupsShed();
  s.rejected = snap.totals.groups_rejected;
  s.lcv_violations = snap.totals.lcv_violations;
  // Per-second rates from the cumulative deltas against the previous
  // sample (zero on the first, and whenever the clock has not advanced).
  const double dt = s.t_s - poll_prev_.t_s;
  if (dt > 0.0 && poll_prev_.t_s > 0.0) {
    s.shed_per_s = static_cast<double>(s.shed - poll_prev_.shed) / dt;
    s.reject_per_s =
        static_cast<double>(s.rejected - poll_prev_.rejected) / dt;
  }
  poll_prev_ = s;
  return s;
}

void QueryServer::ObserveSample(const StatsSample& sample) {
  // Poller thread, no server lock held (the poller unlocks around its
  // sample + observer calls), so locking `mu_` or snapshotting from the
  // capture path below is safe.
  if (slo_ == nullptr) return;
  const SloEngine::EvalResult r = slo_->Evaluate(sample);
  slo_critical_.store(r.any_critical, std::memory_order_relaxed);
  if (options_.slo_admission) {
    std::lock_guard<std::mutex> lock(mu_);
    controller_.SetSloCritical(r.any_critical);
  }
  if (r.entered_critical && flight_ != nullptr) {
    CaptureBundle("slo:" + r.entered + ":critical", sample.t_s);
  }
}

int64_t QueryServer::CaptureFlightBundle(const std::string& reason) {
  if (flight_ == nullptr) return -1;
  return CaptureBundle(reason, Now().seconds());
}

int64_t QueryServer::CaptureBundle(const std::string& reason, double t_s) {
  FlightRecorder::Sources src;
  src.trace = trace_.get();
  src.slow_log = slow_log_.get();
  src.timeseries = timeseries_.get();
  src.stats_json = [this] {
    return Snapshot(/*with_attribution=*/true).ToJson();
  };
  if (slo_ != nullptr) {
    src.slo_json = [this] { return slo_->ToJson(); };
  }
  return flight_->Capture(src, reason, t_s);
}

}  // namespace ideval
