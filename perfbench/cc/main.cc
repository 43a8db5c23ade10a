// The interaction benchmark: builds one workload's tables and seeded
// user schedule, serves it at user pace through `QueryServer` (and, for
// explore_net, the `NetServer` socket front end), checks every answer
// against an independent oracle, and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace_out <file.json>]
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, and the first half of the window runs
// without the benchmark's spans and the second half with them, so the
// difference is the tracing overhead. Stdout carries one header line
// ({"header": ...}) and, last, the result line.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "engine/engine.h"
#include "net/codec.h"
#include "net/net_server.h"
#include "obs/metrics_registry.h"
#include "oracle.h"
#include "serve/server.h"
#include "wire_client.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ideval::Query;
using ideval::QueryResultData;
using ideval::Result;
using ideval::Status;

constexpr double kWarmupS = 1.0;
/// Set-up repeats until about kSetupTargetS of set-up time has run (at
/// least kMinSetupReps, at most kMaxSetupReps), so a short set-up is
/// repeated often enough that one host stall cannot move its median.
constexpr double kSetupTargetS = 5.0;
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 41;
/// Replays per run for the engine / codec / cache per-layer figures.
constexpr size_t kReplaySample = 400;
constexpr int kObsReps = 25;
constexpr uint64_t kRidBase = 1ull << 32;  ///< Request ids of interactions.

double Sec(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Us(Clock::duration d) { return Sec(d) * 1e6; }

/// Linear-interpolated quantile (the `statistics` "inclusive" method).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct CpuSample {
  double cpu_s = 0.0;
  int64_t ctx = 0;
};
CpuSample ReadCpu() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return CpuSample{tv(ru.ru_utime) + tv(ru.ru_stime),
                   static_cast<int64_t>(ru.ru_nvcsw + ru.ru_nivcsw)};
}
double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Spans -----------------------------------------------------------

/// The benchmark's own spans around calls into the program, kept in
/// memory and written as Chrome trace JSON when the run ends. Recorded
/// from one thread only.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  uint64_t Add(const char* name, Clock::time_point start,
               Clock::time_point end, uint64_t parent, uint64_t interaction,
               int lane) {
    spans_.push_back(Span{name, start, end, ++next_id_, parent, interaction,
                          lane});
    return next_id_;
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,\"parent\":%llu,"
          "\"interaction\":%llu}}",
          i ? ",\n" : "\n", s.name, s.lane, Us(s.start - epoch_),
          Us(s.end - s.start), static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.interaction));
      out << buf;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    uint64_t id, parent, interaction;
    int lane;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 0;
};

// --- Set-up ----------------------------------------------------------

/// Everything one run serves from. Members are destroyed in reverse
/// order: the front end stops before the server, the server before the
/// registry and engine it uses.
struct Rig {
  ideval::TablePtr table;
  Schedule sched;
  std::unique_ptr<ideval::Engine> engine;
  std::unique_ptr<ideval::MetricsRegistry> registry;
  std::unique_ptr<ideval::QueryServer> server;
  std::unique_ptr<ideval::NetServer> net;
  double table_s = 0, trace_s = 0, register_s = 0, start_s = 0;
  double Total() const { return table_s + trace_s + register_s + start_s; }
};

Result<std::unique_ptr<Rig>> Setup(WorkloadKind kind, uint64_t seed,
                                   double window_s, int nproc) {
  auto rig = std::make_unique<Rig>();
  auto t = Clock::now();
  IDEVAL_ASSIGN_OR_RETURN(rig->table, BuildTable(kind));
  auto t1 = Clock::now();
  rig->table_s = Sec(t1 - t);
  IDEVAL_ASSIGN_OR_RETURN(
      rig->sched, BuildSchedule(kind, rig->table, seed, kWarmupS, window_s));
  auto t2 = Clock::now();
  rig->trace_s = Sec(t2 - t1);
  ideval::EngineOptions eopts;
  eopts.enable_zone_maps = true;
  rig->engine = std::make_unique<ideval::Engine>(eopts);
  IDEVAL_RETURN_NOT_OK(rig->engine->RegisterTable(rig->table));
  auto t3 = Clock::now();
  rig->register_s = Sec(t3 - t2);
  // The one server configuration every workload runs (README).
  rig->registry = std::make_unique<ideval::MetricsRegistry>();
  ideval::ServerOptions sopts;
  sopts.num_workers = nproc;
  sopts.enable_shared_cache = true;
  sopts.enable_metrics = true;
  sopts.metrics_registry = rig->registry.get();
  sopts.stats_poll_ms = 250.0;
  IDEVAL_ASSIGN_OR_RETURN(rig->server,
                          ideval::QueryServer::Create(rig->engine.get(), sopts));
  if (ShapeOf(kind).net) {
    IDEVAL_ASSIGN_OR_RETURN(
        rig->net, ideval::NetServer::Start(rig->server.get(),
                                           ideval::NetServerOptions{}));
  }
  rig->start_s = Sec(Clock::now() - t3);
  return rig;
}

// --- The open loop ---------------------------------------------------

/// What became of one scheduled interaction.
struct Slot {
  Clock::time_point due, sent, acked, done;
  bool issued = false;
  bool admitted = false;
  bool error = false;
  int completions = 0;
  double submit_us = 0.0;
  double load_factor = 0.0;
  ideval::CompletionPayload completion;
};

/// Window bookkeeping shared by both serving paths.
struct Marks {
  CpuSample start, mid, end;
  bool started = false, mid_taken = false;
  std::vector<double> lag_ms;  ///< Measured interactions' send lag.
  /// Socket counters (explore_net only), after drain.
  int64_t bytes = 0, frames = 0;
  int64_t write_queue_shed = 0;
  std::string invariant_error;
  bool realtime = false;  ///< The generator ran at real-time priority.
};

/// Runs the calling thread (the load generator) at real-time priority
/// while the schedule plays, so it is never left waiting for a core
/// behind the server it loads: with every core serving, its wake-ups
/// would otherwise be late by whole time slices and latency timed from
/// the intended issue time would measure the generator. Where the
/// process may not raise its priority the generator stays at normal
/// priority and `workload.send_lag_p99_ms` shows what that costs.
class GeneratorPriority {
 public:
  GeneratorPriority() {
    sched_param p{};
    p.sched_priority = 1;
    raised_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &p) == 0;
  }
  ~GeneratorPriority() {
    if (!raised_) return;
    sched_param p{};
    pthread_setschedparam(pthread_self(), SCHED_OTHER, &p);
  }
  GeneratorPriority(const GeneratorPriority&) = delete;
  GeneratorPriority& operator=(const GeneratorPriority&) = delete;
  bool raised() const { return raised_; }

 private:
  bool raised_ = false;
};

/// Sleeps (in-process) or pumps the socket (net) until each interaction
/// is due, then issues it; samples CPU at the window's start, middle and
/// end. Spans are recorded only for interactions in the traced half.
template <typename WaitFn, typename IssueFn>
void DriveSchedule(const Schedule& s, Clock::time_point t0, bool trace,
                   std::vector<Slot>* slots, Marks* m, WaitFn wait,
                   IssueFn issue) {
  const double mid = s.warmup_s + s.window_s / 2.0;
  GeneratorPriority priority;
  m->realtime = priority.raised();
  for (size_t i = 0; i < s.interactions.size(); ++i) {
    const Interaction& in = s.interactions[i];
    Slot& slot = (*slots)[i];
    slot.due = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(in.intended_s));
    wait(slot.due);
    if (in.measured && !m->started) {
      m->start = ReadCpu();
      m->started = true;
    }
    if (trace && in.measured && in.intended_s >= mid && !m->mid_taken) {
      m->mid = ReadCpu();
      m->mid_taken = true;
    }
    const bool traced = trace && in.measured && in.intended_s >= mid;
    slot.sent = Clock::now();
    if (in.measured) m->lag_ms.push_back(Sec(slot.sent - slot.due) * 1e3);
    issue(i, traced);
    slot.issued = true;
  }
  m->end = ReadCpu();
}

Status RunInProcess(Rig* rig, bool trace, SpanLog* spans,
                    std::vector<Slot>* slots, Marks* m) {
  const Schedule& s = rig->sched;
  std::vector<uint64_t> sids;
  for (int u = 0; u < s.users; ++u) sids.push_back(rig->server->OpenSession());
  Status failure = Status::OK();
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  DriveSchedule(
      s, t0, trace, slots, m,
      [](Clock::time_point due) { std::this_thread::sleep_until(due); },
      [&](size_t i, bool traced) {
        Slot* slot = &(*slots)[i];
        const Interaction& in = s.interactions[i];
        std::vector<Query> queries = s.groups[in.group];
        const auto a = Clock::now();
        auto out = rig->server->Submit(
            sids[in.session], std::move(queries),
            [slot](ideval::GroupCompletion&& c) {
              // Runs under the server lock: record, move, return.
              slot->done = Clock::now();
              ++slot->completions;
              ideval::CompletionPayload& p = slot->completion;
              p.seq = c.seq;
              p.terminal = c.terminal;
              p.lcv = c.lcv;
              p.queries_executed = c.queries_executed;
              p.queries_failed = c.queries_failed;
              p.cache_hits = c.cache_hits;
              p.queue_wait_us = c.queue_wait.micros();
              p.service_us = c.service.micros();
              p.latency_us = c.latency.micros();
              p.results = std::move(c.results);
            });
        const auto b = Clock::now();
        slot->submit_us = Us(b - a);
        if (traced) spans->Add("serve.submit", a, b, 0, i + 1, in.session);
        if (!out.ok()) {
          slot->error = true;
          if (failure.ok()) failure = out.status();
          return;
        }
        slot->load_factor = out->load.load_factor;
        slot->admitted =
            out->disposition == ideval::SubmitDisposition::kEnqueued ||
            out->disposition == ideval::SubmitDisposition::kCoalesced;
      });
  rig->server->Drain();
  for (uint64_t sid : sids) (void)rig->server->CloseSession(sid);
  if (!failure.ok()) {
    std::fprintf(stderr, "perfbench: submit failed: %s\n",
                 failure.ToString().c_str());
  }
  return Status::OK();
}

Status RunNet(Rig* rig, bool trace, SpanLog* spans, std::vector<Slot>* slots,
              Marks* m) {
  const Schedule& s = rig->sched;
  IDEVAL_ASSIGN_OR_RETURN(std::unique_ptr<WireClient> client,
                          WireClient::Connect(rig->net->port()));
  std::vector<uint64_t> sids(static_cast<size_t>(s.users), 0);
  int opened = 0, drained = 0, closed = 0;
  std::string control_error;
  std::vector<bool> traced_slot(slots->size(), false);
  const auto on_frame = [&](const ideval::FrameHeader& h, const uint8_t* p,
                            Clock::time_point at) {
    ideval::WireReader r(p, h.payload_len);
    if (h.request_id < kRidBase) {
      // Session control: open / drain / close responses.
      if (h.opcode == ideval::Opcode::kSessionOpened && h.request_id >= 1 &&
          h.request_id <= sids.size()) {
        sids[h.request_id - 1] = r.U64();
        ++opened;
      } else if (h.opcode == ideval::Opcode::kSessionDrained) {
        ++drained;
      } else if (h.opcode == ideval::Opcode::kSessionClosed) {
        ++closed;
      } else {
        control_error = std::string("unexpected control frame ") +
                        ideval::OpcodeToString(h.opcode);
      }
      return;
    }
    const size_t i = static_cast<size_t>(h.request_id - kRidBase);
    if (i >= slots->size()) return;
    Slot& slot = (*slots)[i];
    if (h.opcode == ideval::Opcode::kSubmitAck) {
      auto ack = ideval::DecodeSubmitAck(&r);
      slot.acked = at;
      if (!ack.ok()) {
        slot.error = true;
        return;
      }
      slot.load_factor = ack->load_factor;
      slot.admitted =
          ack->disposition == ideval::SubmitDisposition::kEnqueued ||
          ack->disposition == ideval::SubmitDisposition::kCoalesced;
      if (traced_slot[i]) {
        spans->Add("net.ack_rtt", slot.sent, at, 0, i + 1,
                   s.interactions[i].session);
      }
    } else if (h.opcode == ideval::Opcode::kGroupComplete) {
      const auto d0 = Clock::now();
      auto done = ideval::DecodeCompletion(&r, h.version);
      if (traced_slot[i]) {
        spans->Add("net.decode_completion", d0, Clock::now(), 0, i + 1,
                   s.interactions[i].session);
      }
      slot.done = at;
      ++slot.completions;
      if (!done.ok()) {
        slot.error = true;
        return;
      }
      slot.completion = std::move(*done);
    } else if (h.opcode == ideval::Opcode::kError) {
      auto err = ideval::DecodeError(&r);
      if (err.ok() && err->code == ideval::WireErrorCode::kWriteQueueShed) {
        ++m->write_queue_shed;
      }
      slot.error = true;
    }
  };
  const auto deadline = [] { return Clock::now() + std::chrono::seconds(60); };

  for (int u = 0; u < s.users; ++u) {
    IDEVAL_RETURN_NOT_OK(client->Send(ideval::Opcode::kOpenSession, 0,
                                      static_cast<uint64_t>(u + 1), nullptr));
  }
  IDEVAL_ASSIGN_OR_RETURN(
      bool ok, client->PumpWhile([&] { return opened == s.users; },
                                 deadline(), on_frame));
  if (!ok || !control_error.empty()) {
    return Status::Internal("opening sessions failed " + control_error);
  }

  Status failure = Status::OK();
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  DriveSchedule(
      s, t0, trace, slots, m,
      [&](Clock::time_point due) {
        Status st = client->PumpUntil(due, on_frame);
        if (!st.ok() && failure.ok()) failure = st;
      },
      [&](size_t i, bool traced) {
        const Interaction& in = s.interactions[i];
        traced_slot[i] = traced;
        const auto a = Clock::now();
        Status st = client->Send(
            ideval::Opcode::kSubmitGroup, sids[in.session], kRidBase + i,
            [&](ideval::WireWriter* w) {
              ideval::EncodeQueryGroup(w, s.groups[in.group]);
            });
        if (traced) {
          spans->Add("net.send_submit", a, Clock::now(), 0, i + 1, in.session);
        }
        if (!st.ok() && failure.ok()) failure = st;
      });
  IDEVAL_RETURN_NOT_OK(failure);
  // Every ack, and a completion for every admitted interaction.
  IDEVAL_ASSIGN_OR_RETURN(
      ok, client->PumpWhile(
              [&] {
                for (const Slot& sl : *slots) {
                  if (sl.error) continue;
                  if (sl.acked == Clock::time_point{}) return false;
                  if (sl.admitted && sl.completions == 0) return false;
                }
                return true;
              },
              deadline(), on_frame));
  if (!ok) return Status::Internal("timed out waiting for completions");
  for (int u = 0; u < s.users; ++u) {
    IDEVAL_RETURN_NOT_OK(client->Send(ideval::Opcode::kDrain, sids[u],
                                      static_cast<uint64_t>(u + 1), nullptr));
  }
  IDEVAL_ASSIGN_OR_RETURN(
      ok, client->PumpWhile([&] { return drained == s.users; }, deadline(),
                            on_frame));
  if (!ok) return Status::Internal("timed out draining sessions");
  for (int u = 0; u < s.users; ++u) {
    IDEVAL_RETURN_NOT_OK(client->Send(ideval::Opcode::kCloseSession, sids[u],
                                      static_cast<uint64_t>(u + 1), nullptr));
  }
  IDEVAL_ASSIGN_OR_RETURN(
      ok, client->PumpWhile([&] { return closed == s.users; }, deadline(),
                            on_frame));
  if (!ok) return Status::Internal("timed out closing sessions");
  if (!control_error.empty()) return Status::Internal(control_error);

  // Both ends of the socket must agree exactly once everything drained.
  const ideval::NetStatsSnapshot ns = rig->net->Stats();
  if (ns.bytes_received != client->bytes_sent() ||
      ns.bytes_sent != client->bytes_received() ||
      ns.frames_received != client->frames_sent() ||
      ns.frames_sent != client->frames_received()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "net counters disagree: client sent %lld B/%lld frames, "
                  "server received %lld B/%lld; server sent %lld B/%lld, "
                  "client received %lld B/%lld",
                  (long long)client->bytes_sent(),
                  (long long)client->frames_sent(),
                  (long long)ns.bytes_received, (long long)ns.frames_received,
                  (long long)ns.bytes_sent, (long long)ns.frames_sent,
                  (long long)client->bytes_received(),
                  (long long)client->frames_received());
    m->invariant_error = buf;
  }
  m->bytes = client->bytes_sent() + client->bytes_received();
  m->frames = client->frames_sent() + client->frames_received();
  m->write_queue_shed += ns.write_queue_shed;
  return Status::OK();
}

// --- Checks ----------------------------------------------------------

/// Recomputes the answer of every query group any completed interaction
/// used (in parallel, after the timed window) and compares. Returns the
/// number of wrong answers; the first few are described on stderr.
int64_t VerifyAnswers(const Rig& rig, const std::vector<Slot>& slots,
                      int nproc) {
  const Schedule& s = rig.sched;
  std::vector<char> used(s.groups.size(), 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].completions > 0) used[s.interactions[i].group] = 1;
  }
  std::vector<size_t> todo;
  for (size_t g = 0; g < used.size(); ++g) {
    if (used[g]) todo.push_back(g);
  }
  std::vector<std::vector<std::optional<QueryResultData>>> expected(
      s.groups.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < nproc; ++t) {
    pool.emplace_back([&] {
      for (size_t k = next.fetch_add(1); k < todo.size();
           k = next.fetch_add(1)) {
        const size_t g = todo[k];
        expected[g] = OracleAnswers(*rig.table, s.groups[g]);
      }
    });
  }
  for (auto& th : pool) th.join();

  int64_t wrong = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    if (slot.completions == 0 ||
        slot.completion.terminal != ideval::GroupTerminal::kExecuted) {
      continue;
    }
    const size_t g = s.interactions[i].group;
    const auto& got = slot.completion.results;
    for (size_t j = 0; j < s.groups[g].size(); ++j) {
      if (j >= got.size() || !got[j].has_value()) continue;  // Failed.
      std::string why = !expected[g][j].has_value()
                            ? "oracle could not answer"
                            : CheckAnswer(s.groups[g][j], *expected[g][j],
                                          *got[j]);
      if (!why.empty()) {
        if (wrong < 5) {
          std::fprintf(stderr, "perfbench: wrong answer, interaction %zu "
                       "query %zu (%s): %s\n", i, j,
                       ideval::QueryToString(s.groups[g][j]).c_str(),
                       why.c_str());
        }
        ++wrong;
      }
    }
  }
  return wrong;
}

bool Succeeded(const Slot& slot, size_t queries) {
  return slot.issued && slot.admitted && !slot.error &&
         slot.completions == 1 &&
         slot.completion.terminal == ideval::GroupTerminal::kExecuted &&
         slot.completion.queries_failed == 0 &&
         slot.completion.results.size() == queries &&
         std::all_of(slot.completion.results.begin(),
                     slot.completion.results.end(),
                     [](const auto& r) { return r.has_value(); });
}

// --- The collision probe ---------------------------------------------

using Answers = std::vector<std::optional<QueryResultData>>;

/// Serves `group` alone on the otherwise idle server and waits for its
/// completion; nullopt when it is not admitted, not executed, or not
/// complete within 10 s.
std::optional<Answers> ServeAlone(ideval::QueryServer* server, uint64_t sid,
                                  std::vector<Query> group) {
  auto done = std::make_shared<std::promise<ideval::GroupCompletion>>();
  std::future<ideval::GroupCompletion> future = done->get_future();
  auto out = server->Submit(sid, std::move(group),
                            [done](ideval::GroupCompletion&& c) {
                              done->set_value(std::move(c));
                            });
  if (!out.ok() ||
      (out->disposition != ideval::SubmitDisposition::kEnqueued &&
       out->disposition != ideval::SubmitDisposition::kCoalesced) ||
      future.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    return std::nullopt;
  }
  ideval::GroupCompletion c = future.get();
  if (c.terminal != ideval::GroupTerminal::kExecuted) return std::nullopt;
  return std::move(c.results);
}

/// What the collision probes found. `faulted` counts probes whose second
/// group was served the first group's answer, the known cache-key fault
/// (README "Known faults"); any other wrong or missing answer is an
/// error.
struct ProbeOutcome {
  int64_t faulted = 0;
  int64_t errors = 0;
};

ProbeOutcome RunProbes(const Rig& rig,
                       const std::vector<CollisionProbe>& probes) {
  ProbeOutcome o;
  const uint64_t sid = rig.server->OpenSession();
  for (const CollisionProbe& p : probes) {
    const std::optional<Answers> a = ServeAlone(rig.server.get(), sid, p.first);
    const std::optional<Answers> b =
        ServeAlone(rig.server.get(), sid, p.second);
    const Answers want_a = OracleAnswers(*rig.table, p.first);
    const Answers want_b = OracleAnswers(*rig.table, p.second);
    if (!a || !b || a->size() != 1 || b->size() != 1 || !(*a)[0] ||
        !(*b)[0] || !want_a[0] || !want_b[0]) {
      ++o.errors;
      continue;
    }
    const Query& q = p.second[0];
    std::string why = CheckAnswer(p.first[0], *want_a[0], *(*a)[0]);
    if (why.empty()) {
      why = CheckAnswer(q, *want_b[0], *(*b)[0]);
      if (!why.empty() && CheckAnswer(q, *want_a[0], *(*b)[0]).empty()) {
        ++o.faulted;
        continue;
      }
    }
    if (!why.empty()) {
      if (o.errors == 0) {
        std::fprintf(stderr, "perfbench: wrong probe answer: %s\n",
                     why.c_str());
      }
      ++o.errors;
    }
  }
  (void)rig.server->CloseSession(sid);
  return o;
}

// --- Output ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Json(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  WorkloadKind kind = WorkloadKind::kBrushDistinct;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      if (!ParseWorkload(v, &a->kind)) return false;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds >= 1.0 && a->seconds <= 600.0)) {
        return false;
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--trace_out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload brush_distinct|brush_shared|"
                 "explore_net --seed N --seconds S --trace 0|1 "
                 "[--trace_out FILE]\n");
    return 2;
  }
  const std::string self = SelfTest();
  if (!self.empty()) {
    std::fprintf(stderr, "perfbench: verifier self-test failed: %s\n",
                 self.c_str());
    return 1;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const WorkloadShape shape = ShapeOf(args.kind);

  // Set-up runs several times; the last rig serves the run.
  std::vector<double> setup_s, table_s, trace_s, register_s;
  std::unique_ptr<Rig> rig;
  double setup_total = 0.0;
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && setup_total >= kSetupTargetS) break;
    rig.reset();
    auto r = Setup(args.kind, args.seed, args.seconds, nproc);
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    rig = std::move(*r);
    setup_s.push_back(rig->Total());
    setup_total += rig->Total();
    table_s.push_back(rig->table_s);
    trace_s.push_back(rig->trace_s);
    register_s.push_back(rig->register_s);
  }
  const Schedule& s = rig->sched;
  {
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(s.digest));
    std::printf(
        "{\"header\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"stream_digest\": \"%s\", \"build_type\": \"%s\", "
        "\"compiler\": \"%s\", \"kernel_isa\": \"%s\", \"nproc\": %d, "
        "\"users\": %d, \"offered_per_s\": %s, \"interactions\": %zu}}\n",
        WorkloadName(args.kind), static_cast<unsigned long long>(args.seed),
        digest, ideval::GetBuildInfo().build_type,
        ideval::GetBuildInfo().compiler,
        ideval::KernelIsaToString(rig->engine->kernel_isa()), nproc,
        shape.users, Json(shape.users * shape.user_rate).c_str(),
        s.interactions.size());
  }

  const auto epoch = Clock::now();
  SpanLog spans(epoch);
  std::vector<Slot> slots(s.interactions.size());
  Marks marks;
  const ideval::ResultCacheStats cache0 = rig->server->result_cache()->Stats();
  Status run = shape.net ? RunNet(rig.get(), args.trace, &spans, &slots, &marks)
                         : RunInProcess(rig.get(), args.trace, &spans, &slots,
                                        &marks);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: run failed: %s\n",
                 run.ToString().c_str());
    return 1;
  }
  const double peak_rss_mb = PeakRssMb();
  std::printf("{\"header\": {\"generator_realtime\": %s}}\n",
              marks.realtime ? "true" : "false");
  const ideval::ServerStatsSnapshot snap = rig->server->Snapshot();
  const ideval::ResultCacheStats cache1 = rig->server->result_cache()->Stats();

  // The collision probes run after the window on the idle server, one
  // pair per interaction of a user, so they are always the same share of
  // what a run attempts.
  const int64_t per_user = InteractionsPerUser(args.kind, args.seconds);
  auto probes = CollisionProbes(*rig->table, per_user);
  if (!probes.ok()) {
    std::fprintf(stderr, "perfbench: probes: %s\n",
                 probes.status().ToString().c_str());
    return 1;
  }
  const ProbeOutcome probe = RunProbes(*rig, *probes);

  // Invariants: every submission ends in exactly one terminal bucket,
  // and every admitted group completes exactly once.
  bool correct = true;
  const auto& tot = snap.totals;
  if (tot.groups_submitted !=
      tot.groups_executed + tot.GroupsShed() + tot.groups_rejected) {
    std::fprintf(stderr, "perfbench: submitted %lld != executed %lld + shed "
                 "%lld + rejected %lld\n", (long long)tot.groups_submitted,
                 (long long)tot.groups_executed, (long long)tot.GroupsShed(),
                 (long long)tot.groups_rejected);
    correct = false;
  }
  if (tot.groups_submitted != static_cast<int64_t>(slots.size())) {
    std::fprintf(stderr, "perfbench: server saw %lld submissions, %zu sent\n",
                 (long long)tot.groups_submitted, slots.size());
    correct = false;
  }
  for (const Slot& slot : slots) {
    if (slot.completions != (slot.admitted ? 1 : 0)) {
      std::fprintf(stderr, "perfbench: an %s group completed %d times\n",
                   slot.admitted ? "admitted" : "unadmitted", slot.completions);
      correct = false;
      break;
    }
  }
  if (!marks.invariant_error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", marks.invariant_error.c_str());
    correct = false;
  }
  // No interaction of the stream, warm-up included, may fail, be shed
  // or be rejected, and no probe may fail other than by the known fault.
  int64_t stream_failed = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!Succeeded(slots[i], s.groups[s.interactions[i].group].size())) {
      ++stream_failed;
    }
  }
  if (stream_failed > 0 || tot.groups_rejected > 0 || tot.GroupsShed() > 0 ||
      marks.write_queue_shed > 0 || probe.errors > 0) {
    std::fprintf(stderr, "perfbench: %lld interactions failed (%lld rejected, "
                 "%lld shed, %lld shed from the write queue), %lld probe "
                 "errors\n", (long long)stream_failed,
                 (long long)tot.groups_rejected, (long long)tot.GroupsShed(),
                 (long long)marks.write_queue_shed, (long long)probe.errors);
    correct = false;
  }
  const auto verify_t0 = Clock::now();
  const int64_t wrong = VerifyAnswers(*rig, slots, nproc);
  std::fprintf(stderr, "perfbench: answers checked in %.2f s\n",
               Sec(Clock::now() - verify_t0));
  if (wrong > 0) {
    std::fprintf(stderr, "perfbench: %lld wrong answers\n", (long long)wrong);
    correct = false;
  }

  // End-to-end figures over the measured window.
  int64_t attempted = 0, failed = 0, lcv_ok = 0;
  std::vector<double> latency_ms, queue_ms, service_ms, submit_us, load,
      ack_us;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Interaction& in = s.interactions[i];
    if (!in.measured) continue;
    const Slot& slot = slots[i];
    ++attempted;
    if (!Succeeded(slot, s.groups[in.group].size())) {
      ++failed;
      continue;
    }
    const auto next = slot.due + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         in.next_intended_s - in.intended_s));
    if (slot.done < next) ++lcv_ok;
    latency_ms.push_back(Sec(slot.done - slot.due) * 1e3);
    queue_ms.push_back(slot.completion.queue_wait_us / 1e3);
    service_ms.push_back(slot.completion.service_us / 1e3);
    submit_us.push_back(slot.submit_us);
    load.push_back(slot.load_factor);
    if (shape.net) ack_us.push_back(Us(slot.acked - slot.sent));
  }
  const int64_t completed = attempted - failed;
  attempted += 2 * static_cast<int64_t>(probes->size());
  failed += probe.faulted;
  const double window_cpu_s = marks.end.cpu_s - marks.start.cpu_s;
  const double per = completed > 0 ? 1.0 / static_cast<double>(completed) : 0.0;

  if (!args.trace) {
    PrintResult(correct, attempted, failed,
                {{"setup_s", Quantile(setup_s, 0.5), "s"},
                 {"lcv_goodput_per_s",
                  static_cast<double>(lcv_ok) / s.window_s, "1/s"},
                 {"cpu_ms_per_interaction", window_cpu_s * 1e3 * per, "ms"},
                 {"peak_rss_mb", peak_rss_mb, "MB"}});
    return 0;
  }

  // --- Per-layer figures (traced run) ---
  // Tracing overhead: CPU per interaction in the traced second half
  // against the untraced first half of the same window.
  int64_t first_half = 0, second_half = 0;
  const double mid = s.warmup_s + s.window_s / 2.0;
  for (const Interaction& in : s.interactions) {
    if (!in.measured) continue;
    (in.intended_s < mid ? first_half : second_half) += 1;
  }
  const double cpu_a = (marks.mid.cpu_s - marks.start.cpu_s) /
                       std::max<int64_t>(1, first_half);
  const double cpu_b = (marks.end.cpu_s - marks.mid.cpu_s) /
                       std::max<int64_t>(1, second_half);
  const double overhead_pct = cpu_a > 0 ? (cpu_b / cpu_a - 1.0) * 100.0 : 0.0;

  // Root spans and the server-reported queue/service split, derived
  // from what the live path recorded.
  for (size_t i = 0; i < slots.size(); ++i) {
    const Interaction& in = s.interactions[i];
    const Slot& slot = slots[i];
    if (!in.measured || in.intended_s < mid || slot.completions == 0) continue;
    const uint64_t root =
        spans.Add("interaction", slot.due, slot.done, 0, i + 1, in.session);
    if (!shape.net) {
      const auto svc = std::chrono::microseconds(slot.completion.service_us);
      const auto qw = std::chrono::microseconds(slot.completion.queue_wait_us);
      spans.Add("serve.queue_wait", slot.done - svc - qw, slot.done - svc,
                root, i + 1, in.session);
      spans.Add("serve.service", slot.done - svc, slot.done, root, i + 1,
                in.session);
    }
  }

  // Replays of a deterministic sample of measured interactions, each
  // query alone through the engine, then the warm cache and the codec.
  std::vector<size_t> sample;
  {
    std::vector<size_t> measured;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (s.interactions[i].measured &&
          Succeeded(slots[i], s.groups[s.interactions[i].group].size())) {
        measured.push_back(i);
      }
    }
    const size_t step = std::max<size_t>(1, measured.size() / kReplaySample);
    for (size_t k = 0; k < measured.size(); k += step) {
      sample.push_back(measured[k]);
    }
  }
  std::vector<double> hist_us, select_us, lookup_us, encode_us, decode_us;
  double scan_bytes = 0.0, scan_s = 0.0;
  int64_t rows_scanned = 0, blocks_scanned = 0, blocks_pruned = 0;
  const ideval::Engine& engine = *rig->engine;
  std::vector<uint8_t> buf;
  for (size_t i : sample) {
    const Interaction& in = s.interactions[i];
    for (const Query& q : s.groups[in.group]) {
      const auto a = Clock::now();
      auto resp = engine.Execute(q);
      const auto b = Clock::now();
      spans.Add("engine.execute", a, b, 0, i + 1, in.session);
      if (!resp.ok()) continue;
      const ideval::QueryWorkStats& st = resp->stats;
      rows_scanned += st.tuples_scanned;
      blocks_scanned += st.blocks_scanned;
      blocks_pruned += st.blocks_pruned;
      if (const auto* hq = std::get_if<ideval::HistogramQuery>(&q)) {
        hist_us.push_back(Us(b - a));
        // Column bytes the scan touched: the bin column plus every
        // predicate column, 8 bytes per scanned tuple each.
        scan_bytes += 8.0 * static_cast<double>(st.tuples_scanned) *
                      static_cast<double>(1 + hq->predicates.size());
        scan_s += Sec(b - a);
      } else {
        select_us.push_back(Us(b - a));
      }
      const auto c = Clock::now();
      auto hit = rig->server->result_cache()->Lookup(q);
      const auto d = Clock::now();
      spans.Add("cache.lookup", c, d, 0, i + 1, in.session);
      if (hit.has_value()) lookup_us.push_back(Us(d - c));
    }
    // The wire cost of this interaction: its submit payload and its
    // completion payload, encoded and decoded by the public codec.
    buf.clear();
    ideval::WireWriter w(&buf);
    const auto e0 = Clock::now();
    ideval::EncodeQueryGroup(&w, s.groups[in.group]);
    const size_t group_bytes = buf.size();
    ideval::EncodeCompletion(&w, slots[i].completion);
    const auto e1 = Clock::now();
    ideval::WireReader rg(buf.data(), group_bytes);
    ideval::WireReader rc(buf.data() + group_bytes, buf.size() - group_bytes);
    auto dg = ideval::DecodeQueryGroup(&rg);
    auto dc = ideval::DecodeCompletion(&rc);
    const auto e2 = Clock::now();
    spans.Add("net.encode", e0, e1, 0, i + 1, in.session);
    spans.Add("net.decode", e1, e2, 0, i + 1, in.session);
    if (!dg.ok() || !dc.ok()) {
      std::fprintf(stderr, "perfbench: codec round trip failed\n");
      correct = false;
    }
    encode_us.push_back(Us(e1 - e0));
    decode_us.push_back(Us(e2 - e1));
  }
  std::vector<double> snapshot_ms, exposition_ms;
  for (int k = 0; k < kObsReps; ++k) {
    auto a = Clock::now();
    (void)rig->server->Snapshot();
    auto b = Clock::now();
    (void)rig->registry->ExpositionText();
    auto c = Clock::now();
    spans.Add("obs.snapshot", a, b, 0, 0, 0);
    spans.Add("obs.exposition", b, c, 0, 0, 0);
    snapshot_ms.push_back(Sec(b - a) * 1e3);
    exposition_ms.push_back(Sec(c - b) * 1e3);
  }
  if (!args.trace_out.empty() && !spans.Write(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
    return 1;
  }

  const double n_all = static_cast<double>(slots.size());
  const int64_t lookups = cache1.Lookups() - cache0.Lookups();
  const int64_t hits = (cache1.hits - cache0.hits) +
                       (cache1.coalesced - cache0.coalesced);
  PrintResult(
      correct, attempted, failed,
      {{"client.latency_p50_ms", Quantile(latency_ms, 0.5), "ms"},
       {"client.latency_p99_ms", Quantile(latency_ms, 0.99), "ms"},
       {"data.table_build_s", Quantile(table_s, 0.5), "s"},
       {"workload.trace_build_s", Quantile(trace_s, 0.5), "s"},
       {"workload.send_lag_p99_ms", Quantile(marks.lag_ms, 0.99), "ms"},
       {"engine.register_s", Quantile(register_s, 0.5), "s"},
       {"engine.histogram_p50_us", Quantile(hist_us, 0.5), "us"},
       {"engine.histogram_p99_us", Quantile(hist_us, 0.99), "us"},
       {"engine.scan_gbps", scan_s > 0 ? scan_bytes / scan_s / 1e9 : 0.0,
        "GB/s"},
       {"engine.select_p50_us", Quantile(select_us, 0.5), "us"},
       {"engine.rows_scanned_per_interaction",
        sample.empty() ? 0.0
                       : static_cast<double>(rows_scanned) / sample.size(),
        "count"},
       {"engine.blocks_pruned_frac",
        blocks_scanned + blocks_pruned > 0
            ? static_cast<double>(blocks_pruned) /
                  static_cast<double>(blocks_scanned + blocks_pruned)
            : 0.0,
        "ratio"},
       {"serve.submit_p50_us", shape.net ? 0.0 : Quantile(submit_us, 0.5),
        "us"},
       {"serve.submit_p99_us", shape.net ? 0.0 : Quantile(submit_us, 0.99),
        "us"},
       {"serve.queue_wait_p50_ms", Quantile(queue_ms, 0.5), "ms"},
       {"serve.queue_wait_p99_ms", Quantile(queue_ms, 0.99), "ms"},
       {"serve.service_p50_ms", Quantile(service_ms, 0.5), "ms"},
       {"serve.service_p99_ms", Quantile(service_ms, 0.99), "ms"},
       {"serve.lcv_violations", static_cast<double>(tot.lcv_violations),
        "count"},
       {"serve.rejected", static_cast<double>(tot.groups_rejected), "count"},
       {"serve.shed", static_cast<double>(tot.GroupsShed()), "count"},
       {"serve.admission_load_factor_p99", Quantile(load, 0.99), "ratio"},
       {"cache.hit_rate",
        lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio"},
       {"cache.coalesced_per_interaction",
        static_cast<double>(cache1.coalesced - cache0.coalesced) / n_all,
        "count"},
       {"cache.lookup_p50_us", Quantile(lookup_us, 0.5), "us"},
       {"net.bytes_per_interaction", static_cast<double>(marks.bytes) / n_all,
        "B"},
       {"net.frames_per_interaction",
        static_cast<double>(marks.frames) / n_all, "count"},
       {"net.encode_us", Quantile(encode_us, 0.5), "us"},
       {"net.decode_us", Quantile(decode_us, 0.5), "us"},
       {"net.ack_rtt_p50_us", Quantile(ack_us, 0.5), "us"},
       {"net.write_queue_shed", static_cast<double>(marks.write_queue_shed),
        "count"},
       {"obs.snapshot_ms", Quantile(snapshot_ms, 0.5), "ms"},
       {"obs.exposition_ms", Quantile(exposition_ms, 0.5), "ms"},
       {"obs.tracing_overhead_pct", overhead_pct, "%"},
       {"proc.ctx_switches_per_interaction",
        static_cast<double>(marks.end.ctx - marks.start.ctx) * per, "count"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
