// dfpbench: runs one workload of the dfp benchmark in this process and prints its metrics.
//
//   dfpbench --workload <olap_warm|adhoc_cold|service_mix> --seed <n> --seconds <s>
//            --trace <0|1> [--state-dir <dir>]
//
// Everything runs on one host thread; the four "workers" are simulated VCPUs. The thread is
// pinned to the quietest host CPU (host_cpu.h) before set-up and again, every few seconds,
// during the timed phase.
// A run sets the workload up several times (setup_s is the median), then serves the seeded
// request stream in a closed loop with one client for at least --seconds and at least a fixed
// number of rounds.
// Host-clock metrics cover the whole timed phase; simulated-clock metrics cover the fixed
// rounds only, so they are a deterministic function of the seed. --trace 1 instead replays a
// fixed stream with spans around every call into dfp and reports the per-layer metrics.
//
// Correctness: every distinct result is compared with the reference interpreter, warm-up must
// reach its steady state and the timed phase must not leave it, and with --state-dir every
// deterministic figure must equal the one an earlier run of the same seed recorded there.
// The last line of stdout is one JSON object {correct, attempted, failed, metrics}; the exit
// code is 0 only when the run is correct.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dfpbench/host_cpu.h"
#include "dfpbench/stats.h"
#include "dfpbench/trace.h"
#include "dfpbench/workloads.h"
#include "src/engine/query_engine.h"
#include "src/interp/interpreter.h"
#include "src/profiling/reports.h"
#include "src/service/query_service.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"
#include "src/tpch/datagen.h"
#include "src/util/str.h"
#include "src/vcpu/cost_model.h"

namespace dfpbench {
namespace {

using dfp::QueryService;
using dfp::QueryTicket;
using dfp::TicketId;
using Clock = std::chrono::steady_clock;

constexpr double kScale = 0.01;
constexpr int kSetupRepeats = 3;
constexpr int kRunFixedRepeats = 31;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double Share(double part, double whole) { return whole > 0 ? 100.0 * part / whole : 0; }

struct Options {
  WorkloadKind kind = WorkloadKind::kOlapWarm;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string state_dir;
};

// service_mix warm-up gives up after this many rounds; it settles in about five.
constexpr size_t kMaxWarmupRounds = 40;

// Per-workload settings. `fixed_rounds` is the deterministic prefix of the timed phase and the
// length of the traced stream: at least 100 requests, so p90 has ten samples beyond it.
struct WorkloadSetup {
  dfp::ServiceConfig service;
  size_t fixed_rounds = 20;
};

WorkloadSetup SetupFor(WorkloadKind kind) {
  WorkloadSetup setup;
  switch (kind) {
    case WorkloadKind::kOlapWarm:
      setup.service.max_active_sessions = 1;
      break;
    case WorkloadKind::kAdhocCold:
      // Its simulated latency mixes lanes that did and did not take a compile; 2500 tickets
      // keep the p50 of that mixture steady across seeds.
      setup.fixed_rounds = 500;
      break;
    case WorkloadKind::kServiceMix:
      setup.service.max_active_sessions = 2;
      setup.service.queue_depth = 16;
      setup.service.tiering.enabled = true;
      setup.service.continuous.governor.enabled = true;
      setup.service.continuous.governor.overhead_budget = 0.02;
      setup.service.sched.slack_scheduling = true;
      setup.service.sched.placement_repair = true;
      setup.service.reopt.enabled = true;
      break;
  }
  return setup;
}

// A timed or traced ticket: its id, the service clock read just before its Submit, and the
// literal draw it served.
struct TicketRecord {
  TicketId id = 0;
  uint64_t submitted_at_cycles = 0;
  size_t draw = 0;  // Index into Env::draws.
};

struct RequestRecord {
  size_t cls = 0;
  double host_ms = 0;
};

struct SetupTimes {
  double db_ctor_s = 0;
  double datagen_s = 0;
  double service_s = 0;
  double warmup_s = 0;
  double total_s = 0;
};

// One set-up workload: database, service, request stream and what it has served.
struct Env {
  WorkloadKind kind;
  WorkloadSetup setup;
  std::unique_ptr<dfp::Database> db;
  std::unique_ptr<QueryService> service;
  RequestStream stream;
  SetupTimes times;
  size_t warmup_rounds = 0;
  std::string warmup_failure;  // Empty when warm-up reached its steady state.
  // Distinct literal draws seen, by key; every ticket submitted, warm-up included (the first
  // `warmup_tickets`); every request served since warm-up.
  std::vector<QueryDraw> draws;
  std::map<std::string, size_t> draw_index;
  std::vector<TicketRecord> tickets;
  size_t warmup_tickets = 0;
  std::vector<RequestRecord> requests;
  uint64_t render_bytes = 0;  // Keeps the rendered reports observable.

  Env(WorkloadKind k, uint64_t seed) : kind(k), setup(SetupFor(k)), stream(k, seed) {}

  size_t DrawIndex(const QueryDraw& draw) {
    auto [it, inserted] = draw_index.emplace(draw.Key(), draws.size());
    if (inserted) {
      draws.push_back(draw);
    }
    return it->second;
  }
};

dfp::PhysicalOpPtr ParseBind(dfp::Database& db, const QueryDraw& draw, SpanRecorder& rec) {
  if (draw.sql.empty()) {
    return PlanDraw(db, draw);
  }
  dfp::SelectStatement statement;
  {
    SpanRecorder::Scope span(&rec, "parse");
    statement = dfp::ParseSelect(draw.sql);
  }
  SpanRecorder::Scope span(&rec, "bind");
  return dfp::BindSelect(db, statement);
}

// Serves one request: Submit each query, Drain, render each ticket's annotated plan. adhoc_cold
// plans its SQL inside the request; the other workloads plan before the clock starts, as a
// client holding prepared statements would.
void ServeRequest(Env& env, const Request& request, SpanRecorder& rec) {
  QueryService& service = *env.service;
  rec.BeginRequest();
  const bool plan_inside = env.kind == WorkloadKind::kAdhocCold;
  std::vector<TicketRecord> submitted(request.queries.size());
  for (size_t i = 0; i < request.queries.size(); ++i) {
    submitted[i].draw = env.DrawIndex(request.queries[i]);
  }
  std::vector<dfp::PhysicalOpPtr> prepared(request.queries.size());
  if (!plan_inside) {
    SpanRecorder::Scope span(&rec, "prepare");
    for (size_t i = 0; i < request.queries.size(); ++i) {
      prepared[i] = ParseBind(*env.db, request.queries[i], rec);
    }
  }
  const Clock::time_point begin = Clock::now();
  {
    SpanRecorder::Scope request_span(&rec, "request");
    for (size_t i = 0; i < request.queries.size(); ++i) {
      const QueryDraw& draw = request.queries[i];
      dfp::PhysicalOpPtr plan =
          plan_inside ? ParseBind(*env.db, draw, rec) : std::move(prepared[i]);
      submitted[i].submitted_at_cycles = service.ServiceNowCycles();
      SpanRecorder::Scope span(&rec, "submit");
      submitted[i].id = service.Submit(std::move(plan), draw.family);
    }
    {
      SpanRecorder::Scope span(&rec, "drain");
      service.Drain();
    }
    SpanRecorder::Scope span(&rec, "report");
    for (const TicketRecord& record_ticket : submitted) {
      const QueryTicket& ticket = service.ticket(record_ticket.id);
      if (ticket.status == dfp::TicketStatus::kDone && ticket.session != nullptr) {
        const dfp::OperatorProfile profile =
            dfp::BuildOperatorProfile(*ticket.session, ticket.plan->query);
        env.render_bytes += dfp::RenderAnnotatedPlan(profile, ticket.plan->query).size();
      }
    }
  }
  const double host_ms = 1e3 * Seconds(begin, Clock::now());
  env.requests.push_back({request.cls, host_ms});
  env.tickets.insert(env.tickets.end(), submitted.begin(), submitted.end());
}

void ServeRound(Env& env, SpanRecorder& rec) {
  for (const Request& request : env.stream.NextRound()) {
    ServeRequest(env, request, rec);
  }
}

std::map<uint64_t, uint64_t> GovernorPeriods(const QueryService& service) {
  std::map<uint64_t, uint64_t> periods;
  for (const auto& [fingerprint, state] : service.governor().plans()) {
    periods[fingerprint] = state.period;
  }
  return periods;
}

// The governor solves each family's period on running totals, so with fresh literal draws
// every execution nudges it by a few hundredths of a percent forever. Converged therefore
// means: no period moved by more than kPeriodSettledPct during one full round. The timed
// phase then tolerates a drift of kPeriodDriftPct from the period it started with, which
// moves the sampling overhead at the 2% budget by at most about 0.04 percentage points.
constexpr double kPeriodSettledPct = 0.5;
constexpr double kPeriodDriftPct = 2.0;

bool PeriodWithin(uint64_t reference, uint64_t period, double pct) {
  const double delta = std::fabs(static_cast<double>(period) - static_cast<double>(reference));
  return delta <= pct / 100.0 * static_cast<double>(reference);
}

// Steady state of service_mix: no background recompile pending, every family's newest ticket
// ran optimized code, every guarded action resolved, and every governor period settled during
// the round just served.
bool ServiceMixSteady(const QueryService& service, const std::map<uint64_t, uint64_t>& before) {
  const std::map<uint64_t, uint64_t> after = GovernorPeriods(service);
  if (service.pending_recompiles() != 0 || after.size() != before.size()) {
    return false;
  }
  for (const auto& [fingerprint, period] : after) {
    auto it = before.find(fingerprint);
    if (it == before.end() || !PeriodWithin(it->second, period, kPeriodSettledPct)) {
      return false;
    }
  }
  std::map<std::string, dfp::PlanTier> newest_tier;
  for (TicketId id = 1; id <= service.ticket_count(); ++id) {
    newest_tier[service.ticket(id).name] = service.ticket(id).tier;
  }
  for (const auto& [name, tier] : newest_tier) {
    if (tier != dfp::PlanTier::kOptimized) {
      return false;
    }
  }
  for (const dfp::ReoptAction& action : service.reopts().actions()) {
    if (action.state == dfp::ReoptState::kDecided || action.state == dfp::ReoptState::kApplied) {
      return false;
    }
  }
  for (const dfp::RepairAction& action : service.repairs().actions()) {
    if (action.state == dfp::RepairState::kDecided || action.state == dfp::RepairState::kApplied) {
      return false;
    }
  }
  return true;
}

// Serves warm-up rounds until the workload's steady state is observable. Compiles, tier
// promotions, governor convergence and first-touch page faults all happen here, inside setup.
void WarmUp(Env& env) {
  QueryService& service = *env.service;
  SpanRecorder untraced(false);
  while (env.warmup_rounds < kMaxWarmupRounds) {
    const std::map<uint64_t, uint64_t> periods = GovernorPeriods(service);
    ServeRound(env, untraced);
    ++env.warmup_rounds;
    switch (env.kind) {
      case WorkloadKind::kOlapWarm: {
        // The hot set is compiled: one resident entry per class, each compiled exactly once.
        const dfp::PlanCacheStats& stats = service.plan_cache().stats();
        if (stats.misses == kClasses && stats.resident_entries == kClasses) {
          return;
        }
        env.warmup_failure = "hot set not compiled after warm-up";
        return;
      }
      case WorkloadKind::kAdhocCold:
        return;  // One round faults in the code paths; every request stays a miss by design.
      case WorkloadKind::kServiceMix:
        if (ServiceMixSteady(service, periods)) {
          return;
        }
        break;
    }
  }
  env.warmup_failure = dfp::StrFormat("no steady state after %zu warm-up rounds",
                                      env.warmup_rounds);
}

std::unique_ptr<Env> SetUp(const Options& options) {
  const Clock::time_point t0 = Clock::now();
  auto env = std::make_unique<Env>(options.kind, options.seed);
  dfp::DatabaseConfig db_config;
  db_config.extra_bytes = dfp::ServiceArenaBytes(env->setup.service);
  env->db = std::make_unique<dfp::Database>(db_config);
  const Clock::time_point t1 = Clock::now();
  dfp::TpchOptions tpch;
  tpch.scale = kScale;
  dfp::GenerateTpch(*env->db, tpch);
  const Clock::time_point t2 = Clock::now();
  env->service = std::make_unique<QueryService>(*env->db, env->setup.service);
  const Clock::time_point t3 = Clock::now();
  WarmUp(*env);
  const Clock::time_point t4 = Clock::now();
  env->warmup_tickets = env->tickets.size();
  env->requests.clear();
  env->times = {Seconds(t0, t1), Seconds(t1, t2), Seconds(t2, t3), Seconds(t3, t4),
                Seconds(t0, t4)};
  return env;
}

// Sets the workload up kSetupRepeats times and keeps the last one; the earlier ones are torn
// down before the next is built, so only one arena is resident at a time.
std::unique_ptr<Env> SetUpRepeated(const Options& options, std::vector<SetupTimes>* times) {
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetupRepeats; ++i) {
    env.reset();
    env = SetUp(options);
    times->push_back(env->times);
  }
  return env;
}

// Steady-state guard for the timed phase: olap_warm must not compile, service_mix must not
// swap tiers or move a sampling period (beyond kPeriodDriftPct). CheckGuard returns a
// description of the violation, or "".
struct GuardSnapshot {
  uint64_t misses = 0;
  uint64_t tier_swaps = 0;
  std::map<uint64_t, uint64_t> periods;
};

GuardSnapshot TakeGuardSnapshot(const QueryService& service) {
  return {service.plan_cache().stats().misses, service.plan_cache().stats().tier_swaps,
          GovernorPeriods(service)};
}

std::string CheckGuard(const Env& env, const GuardSnapshot& before) {
  const GuardSnapshot after = TakeGuardSnapshot(*env.service);
  if (env.kind == WorkloadKind::kOlapWarm && after.misses != before.misses) {
    return dfp::StrFormat("%llu compiles in the timed phase",
                          static_cast<unsigned long long>(after.misses - before.misses));
  }
  if (env.kind == WorkloadKind::kServiceMix) {
    if (after.tier_swaps != before.tier_swaps) {
      return "tier swap in the timed phase";
    }
    for (size_t i = env.warmup_tickets; i < env.tickets.size(); ++i) {
      const QueryTicket& ticket = env.service->ticket(env.tickets[i].id);
      auto it = before.periods.find(ticket.fingerprint.structure);
      if (it == before.periods.end() ||
          !PeriodWithin(it->second, ticket.sampling_period, kPeriodDriftPct)) {
        return dfp::StrFormat("sampling period of %s moved more than %.1f%% in the timed phase",
                              ticket.name.c_str(), kPeriodDriftPct);
      }
    }
  }
  return "";
}

// Compares every ticket's result with the reference interpreter's result for its literal
// draw (one interpretation per distinct draw), outside any timed phase. Rejected and timed-out
// tickets fail too.
uint64_t CountFailures(Env& env) {
  std::map<size_t, dfp::Result> reference;
  uint64_t failed = 0;
  for (const TicketRecord& record : env.tickets) {
    const QueryTicket& ticket = env.service->ticket(record.id);
    const QueryDraw& draw = env.draws[record.draw];
    if (ticket.status != dfp::TicketStatus::kDone) {
      ++failed;
      continue;
    }
    auto it = reference.find(record.draw);
    if (it == reference.end()) {
      const dfp::PhysicalOpPtr plan = PlanDraw(*env.db, draw);
      it = reference.emplace(record.draw, dfp::InterpretPlan(*env.db, *plan)).first;
    }
    std::string diff;
    if (!dfp::Result::Equivalent(ticket.result, it->second, draw.ordered, &diff)) {
      ++failed;
      std::fprintf(stderr, "result mismatch on %s: %s\n", draw.family.c_str(), diff.c_str());
    }
  }
  return failed;
}

// --- Metric output ---

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool deterministic = false;  // Simulated clock or a count: must repeat exactly per seed.
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           bool deterministic) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, deterministic});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  // "name value" lines of the deterministic metrics, in the order they were added.
  std::string DeterministicText() const {
    std::string text;
    for (const Metric& metric : metrics_) {
      if (metric.deterministic) {
        text += dfp::StrFormat("%s %.17g\n", metric.name.c_str(), metric.value);
      }
    }
    return text;
  }

 private:
  std::vector<Metric> metrics_;
};

// Compares the deterministic figures with those an earlier run of the same seed recorded in
// `state_dir`, or records them there. Returns "" when they agree or were just recorded.
std::string CheckDeterminism(const Options& options, const std::string& text) {
  if (options.state_dir.empty()) {
    return "";
  }
  std::filesystem::create_directories(options.state_dir);
  const std::string path = dfp::StrFormat(
      "%s/%s-seed%llu-trace%d.txt", options.state_dir.c_str(), WorkloadName(options.kind),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0);
  std::ifstream in(path);
  if (in) {
    std::stringstream recorded;
    recorded << in.rdbuf();
    if (recorded.str() != text) {
      return "deterministic figures differ from the earlier run recorded in " + path +
             "\nrecorded:\n" + recorded.str() + "now:\n" + text;
    }
    return "";
  }
  std::ofstream out(path);
  out << text;
  return "";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed, const MetricSet& set) {
  std::string json = dfp::StrFormat("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                                    "\"metrics\": {",
                                    correct ? "true" : "false",
                                    static_cast<unsigned long long>(attempted),
                                    static_cast<unsigned long long>(failed));
  bool first = true;
  for (const Metric& metric : set.metrics()) {
    json += dfp::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                           metric.name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

// Simulated-clock figures of a ticket set.
struct SimFigures {
  double cycles_per_query = 0;
  std::vector<double> latency_ms;
  double overhead_pct = 0;
  double attributed_pct = 0;
};

SimFigures SimulatedFigures(const QueryService& service, const std::vector<TicketRecord>& tickets) {
  SimFigures figures;
  uint64_t execute = 0, overhead = 0, busy = 0, attributed = 0, samples = 0;
  for (const TicketRecord& record : tickets) {
    const QueryTicket& ticket = service.ticket(record.id);
    execute += ticket.execute_cycles;
    overhead += ticket.sampling_overhead.total_cycles();
    busy += ticket.busy_cycles;
    figures.latency_ms.push_back(
        dfp::CyclesToMs(ticket.completed_at_cycles - record.submitted_at_cycles));
    if (ticket.session != nullptr) {
      const dfp::AttributionStats stats = ticket.session->Stats();
      attributed += stats.operator_samples;
      samples += stats.total;
    }
  }
  figures.cycles_per_query =
      tickets.empty() ? 0 : static_cast<double>(execute) / static_cast<double>(tickets.size());
  figures.overhead_pct = Share(static_cast<double>(overhead), static_cast<double>(busy));
  figures.attributed_pct = Share(static_cast<double>(attributed), static_cast<double>(samples));
  return figures;
}

void PrintSetup(const std::vector<SetupTimes>& times, const Env& env, const CpuChoice& cpu) {
  std::printf("# set-up pinned to %s\n", cpu.Describe().c_str());
  for (size_t i = 0; i < times.size(); ++i) {
    std::printf("# setup %zu: %.3f s (database %.3f, datagen %.3f, service %.3f, warm-up %.3f)\n",
                i + 1, times[i].total_s, times[i].db_ctor_s, times[i].datagen_s,
                times[i].service_s, times[i].warmup_s);
  }
  std::printf("# warm-up: %zu round(s)%s%s\n", env.warmup_rounds,
              env.warmup_failure.empty() ? ", steady" : ", NOT STEADY: ",
              env.warmup_failure.c_str());
}

// Serves the timed phase: whole rounds until at least `fixed_rounds` rounds and `seconds`
// have passed. Returns its wall seconds, less the time spent re-selecting the CPU; `fixed`
// receives the figures of the fixed rounds and `cpus` each CPU the phase was pinned to.
struct FixedPrefix {
  size_t tickets_end = 0;  // Index into Env::tickets one past the fixed rounds' last ticket.
  uint64_t start_cycles = 0;
  uint64_t end_cycles = 0;
  // Read when the fixed rounds end: adhoc_cold's memory grows with every request served, and
  // how many the rest of the timed phase serves depends on the host's speed.
  double peak_rss_mib = 0;
};

// The timed phase re-selects the quietest host CPU this often, between rounds. The selection's
// own time is left out of the phase's wall seconds.
constexpr double kRepinSeconds = 10;

double ServeTimed(Env& env, double seconds, FixedPrefix* fixed, std::set<int>* cpus) {
  SpanRecorder untraced(false);
  fixed->start_cycles = env.service->ServiceNowCycles();
  const Clock::time_point begin = Clock::now();
  double pinning_s = 0;
  double next_pin_s = kRepinSeconds;
  size_t rounds = 0;
  for (;;) {
    ServeRound(env, untraced);
    if (++rounds == env.setup.fixed_rounds) {
      fixed->tickets_end = env.tickets.size();
      fixed->end_cycles = env.service->ServiceNowCycles();
      fixed->peak_rss_mib = PeakRssMib();
    }
    const double served_s = Seconds(begin, Clock::now()) - pinning_s;
    if (rounds >= env.setup.fixed_rounds && served_s >= seconds) {
      return served_s;
    }
    if (served_s >= next_pin_s) {
      const Clock::time_point pin_begin = Clock::now();
      cpus->insert(PinToQuietestCpu().cpu);
      pinning_s += Seconds(pin_begin, Clock::now());
      next_pin_s += kRepinSeconds;
    }
  }
}

// Prints the problems that make a run invalid and returns whether there were none.
bool ReportProblems(const std::vector<std::string>& problems) {
  bool valid = true;
  for (const std::string& problem : problems) {
    if (!problem.empty()) {
      std::fprintf(stderr, "INVALID RUN: %s\n", problem.c_str());
      valid = false;
    }
  }
  return valid;
}

void PrintMetrics(const MetricSet& set) {
  for (const Metric& metric : set.metrics()) {
    std::printf("# %-34s %16.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
}

// --- Untraced run: the end-to-end metrics ---

int RunEndToEnd(const Options& options) {
  std::vector<SetupTimes> setups;
  const CpuChoice setup_cpu = PinToQuietestCpu();
  std::unique_ptr<Env> env_owner = SetUpRepeated(options, &setups);
  Env& env = *env_owner;
  PrintSetup(setups, env, setup_cpu);
  QueryService& service = *env.service;

  const CpuChoice timed_cpu = PinToQuietestCpu();
  std::printf("# timed phase pinned to %s\n", timed_cpu.Describe().c_str());
  const GuardSnapshot guard = TakeGuardSnapshot(service);
  FixedPrefix fixed;
  std::set<int> timed_cpus = {timed_cpu.cpu};
  const double wall_s = ServeTimed(env, options.seconds, &fixed, &timed_cpus);
  std::string cpu_list;
  for (int cpu : timed_cpus) {
    cpu_list += dfp::StrFormat(" %d", cpu);
  }
  std::printf("# timed phase ran on cpu(s)%s, re-selected every %.0f s\n", cpu_list.c_str(),
              kRepinSeconds);
  size_t completed = 0;
  for (size_t i = env.warmup_tickets; i < env.tickets.size(); ++i) {
    completed += service.ticket(env.tickets[i].id).status == dfp::TicketStatus::kDone ? 1 : 0;
  }
  const size_t timed_tickets = env.tickets.size() - env.warmup_tickets;

  const std::string guard_failure = CheckGuard(env, guard);
  const uint64_t failed = CountFailures(env);

  std::vector<double> request_ms;
  for (const RequestRecord& request : env.requests) {
    request_ms.push_back(request.host_ms);
  }
  const std::vector<TicketRecord> fixed_tickets(
      env.tickets.begin() + static_cast<ptrdiff_t>(env.warmup_tickets),
      env.tickets.begin() + static_cast<ptrdiff_t>(fixed.tickets_end));
  const SimFigures sim = SimulatedFigures(service, fixed_tickets);
  std::vector<double> setup_s;
  for (const SetupTimes& times : setups) {
    setup_s.push_back(times.total_s);
  }

  MetricSet set;
  set.Add("setup_s", Median(setup_s), "s", false);
  set.Add("queries_per_s", static_cast<double>(completed) / wall_s, "1/s", false);
  set.Add("request_ms_p50", Percentile(request_ms, 50), "ms", false);
  set.Add("request_ms_p90", Percentile(request_ms, 90), "ms", false);
  set.Add("peak_rss_mib", fixed.peak_rss_mib, "MiB", false);
  set.Add("sim_cycles_per_query", sim.cycles_per_query, "cycles", true);
  set.Add("sim_latency_ms_p50", Percentile(sim.latency_ms, 50), "sim_ms", true);
  set.Add("sim_latency_ms_p90", Percentile(sim.latency_ms, 90), "sim_ms", true);
  set.Add("sim_queries_per_s",
          static_cast<double>(fixed_tickets.size()) /
              (static_cast<double>(fixed.end_cycles - fixed.start_cycles) /
               (dfp::kClockGhz * 1e9)),
          "1/sim_s", true);
  set.Add("profile_overhead_pct", sim.overhead_pct, "%", true);
  set.Add("attributed_pct", sim.attributed_pct, "%", true);

  std::printf("# %s seed %llu: %zu requests, %zu tickets in %.2f s; %zu distinct draws "
              "checked against the interpreter, %llu failed\n",
              WorkloadName(options.kind), static_cast<unsigned long long>(options.seed),
              env.requests.size(), timed_tickets, wall_s, env.draws.size(),
              static_cast<unsigned long long>(failed));
  std::printf("# request_ms over %zu requests (highest percentile with ten beyond: p%g); "
              "simulated figures over the first %zu rounds (%zu tickets)\n",
              request_ms.size(), HighestReportablePercentile(request_ms.size()),
              env.setup.fixed_rounds, fixed_tickets.size());
  for (size_t cls = 0; cls < kClasses && options.kind != WorkloadKind::kServiceMix; ++cls) {
    std::vector<double> class_ms;
    for (const RequestRecord& request : env.requests) {
      if (request.cls == cls) {
        class_ms.push_back(request.host_ms);
      }
    }
    std::printf("#   class %-20s %5zu requests, median %9.3f ms\n",
                ClassName(options.kind, cls).c_str(), class_ms.size(), Median(class_ms));
  }
  PrintMetrics(set);

  const bool correct =
      failed == 0 && ReportProblems({env.warmup_failure, guard_failure,
                                     CheckDeterminism(options, set.DeterministicText())});
  PrintResult(correct, env.tickets.size(), failed, set);
  return correct ? 0 : 1;
}

// --- Traced run: the per-layer metrics ---

template <typename Fn>
double TimedNs(SpanRecorder& rec, const char* name, Fn&& fn) {
  SpanRecorder::Scope span(&rec, name);
  const Clock::time_point begin = Clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(Clock::now() - begin).count();
}

// One distinct draw compiled and executed engine-direct, with the service's ParallelConfig and
// ProfilingConfig: Compile -> ResetScratch -> ExecuteParallel -> Resolve.
struct DirectCost {
  double compile_ns = 0;
  double reset_ns = 0;
  double execute_ns = 0;
  double resolve_ns = 0;
  uint64_t cycles = 0;
  uint64_t samples = 0;
  uint64_t instructions = 0;
  uint64_t ir_instrs = 0;
  double scratch_mib = 0;  // Used hash-table, state and output scratch after the run.
};

dfp::CodegenOptions ServiceCodegen(const dfp::ServiceConfig& config) {
  dfp::CodegenOptions options;
  options.parallel = true;
  options.count_tuples = config.reopt.enabled;  // As the service compiles under reopt.
  return options;
}

DirectCost RunDirect(Env& env, const QueryDraw& draw, SpanRecorder& rec) {
  dfp::Database& db = *env.db;
  const dfp::ServiceConfig& config = env.setup.service;
  dfp::QueryEngine engine(&db);
  dfp::ProfilingSession session(config.profiling);
  dfp::PhysicalOpPtr plan = PlanDraw(db, draw);
  rec.BeginRequest();
  SpanRecorder::Scope span(&rec, "direct");
  DirectCost cost;
  dfp::CompiledQuery query;
  cost.compile_ns = TimedNs(rec, "direct.compile", [&] {
    query = engine.Compile(std::move(plan), &session, draw.family, ServiceCodegen(config));
  });
  cost.reset_ns = TimedNs(rec, "direct.reset", [&] { db.ResetScratch(); });
  cost.execute_ns =
      TimedNs(rec, "direct.execute", [&] { engine.ExecuteParallel(query, config.parallel); });
  cost.resolve_ns = TimedNs(rec, "direct.resolve", [&] { session.Resolve(db.code_map()); });
  cost.cycles = engine.last_cycles();
  cost.samples = session.samples().size();
  for (const dfp::WorkerMetrics& worker : engine.last_worker_metrics()) {
    cost.instructions += worker.cpu_stats.instructions;
  }
  cost.ir_instrs = query.TotalIrInstrs();
  for (uint32_t region : {db.hashtables_region(), db.state_region(), db.output_region()}) {
    cost.scratch_mib += static_cast<double>(db.mem().region(region).used) / (1 << 20);
  }
  return cost;
}

// Host microseconds of one ExecuteParallel of a precompiled nation x region count: the
// executor's fixed cost per run, which dominates a cheap ad-hoc query's execution.
double RunFixedUs(Env& env) {
  dfp::Database& db = *env.db;
  const dfp::ServiceConfig& config = env.setup.service;
  dfp::QueryEngine engine(&db);
  dfp::ProfilingSession session(config.profiling);
  dfp::CompiledQuery query = engine.Compile(
      dfp::PlanSql(db, "select count(*) as pairs from nation, region "
                       "where n_regionkey = r_regionkey"),
      &session, "run_fixed", ServiceCodegen(config));
  std::vector<double> us;
  for (int i = 0; i < kRunFixedRepeats; ++i) {
    db.ResetScratch();
    const Clock::time_point begin = Clock::now();
    engine.ExecuteParallel(query, config.parallel);
    us.push_back(1e6 * Seconds(begin, Clock::now()));
  }
  return Median(us);
}

// Sums of the modelled per-worker counters of a ticket set.
struct WorkerTotals {
  uint64_t instructions = 0, busy = 0, idle = 0, accesses = 0, l1_misses = 0, l3_misses = 0;
  uint64_t local = 0, remote = 0, steals = 0;
};

WorkerTotals SumWorkers(const QueryService& service, const std::vector<TicketRecord>& tickets) {
  WorkerTotals totals;
  for (const TicketRecord& record : tickets) {
    for (const dfp::WorkerMetrics& worker : service.ticket(record.id).worker_metrics) {
      totals.instructions += worker.cpu_stats.instructions;
      totals.busy += worker.busy_cycles;
      totals.idle += worker.idle_cycles;
      totals.accesses += worker.cache_stats.accesses;
      totals.l1_misses += worker.cache_stats.l1_misses;
      totals.l3_misses += worker.cache_stats.l3_misses;
      totals.local += worker.numa_stats.local_accesses;
      totals.remote += worker.numa_stats.remote_accesses;
      totals.steals += worker.steals;
    }
  }
  return totals;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double value : values) {
    sum += value;
  }
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

int TracedMain(const Options& options) {
  std::vector<SetupTimes> setups;
  const CpuChoice setup_cpu = PinToQuietestCpu();
  std::unique_ptr<Env> env_owner = SetUpRepeated(options, &setups);
  Env& env = *env_owner;
  PrintSetup(setups, env, setup_cpu);
  QueryService& service = *env.service;
  std::printf("# traced rounds pinned to %s\n", PinToQuietestCpu().Describe().c_str());

  // Untraced and traced rounds alternate, so host drift hits both alike; their throughput
  // ratio is the tracing overhead. After each traced request, outside its timing, every draw
  // seen for the first time runs engine-direct — in the same process state the service just
  // served it in, since the executor's host cost depends on the allocator's state.
  SpanRecorder untraced(false);
  SpanRecorder rec(true);
  double untraced_s = 0, traced_s = 0;
  size_t untraced_tickets = 0;
  std::vector<TicketRecord> traced;
  std::map<size_t, DirectCost> direct;
  size_t direct_segments = 0;
  for (size_t round = 0; round < env.setup.fixed_rounds; ++round) {
    const bool trace_round = round % 2 == 1;
    for (const Request& request : env.stream.NextRound()) {
      const size_t first = env.tickets.size();
      const Clock::time_point begin = Clock::now();
      ServeRequest(env, request, trace_round ? rec : untraced);
      (trace_round ? traced_s : untraced_s) += Seconds(begin, Clock::now());
      if (!trace_round) {
        untraced_tickets += env.tickets.size() - first;
        continue;
      }
      for (size_t i = first; i < env.tickets.size(); ++i) {
        traced.push_back(env.tickets[i]);
        const size_t draw = env.tickets[i].draw;
        if (direct.count(draw) == 0) {
          const size_t before = env.db->code_map().segments().size();
          direct.emplace(draw, RunDirect(env, env.draws[draw], rec));
          direct_segments += env.db->code_map().segments().size() - before;
        }
      }
    }
  }
  // The service's own code segments, without those the engine-direct compiles added.
  const double code_segments =
      static_cast<double>(env.db->code_map().segments().size() - direct_segments);
  const double run_fixed_us = RunFixedUs(env);
  const uint64_t failed = CountFailures(env);

  // A session's run must be identical to a standalone run of the same code; under tiering the
  // service runs patched or baseline code, so there the split is only an estimate.
  std::string direct_mismatch;
  const bool exact_split = !env.setup.service.tiering.enabled;
  // Per-query figures over the traced tickets.
  const double n = static_cast<double>(traced.size());
  double compile_ns = 0, execute_ns = 0, resolve_ns = 0, reset_ns = 0, scratch_mib = 0;
  double ir = 0, machine = 0, spilled = 0, samples = 0, flushes = 0, patched_sites = 0;
  double hits = 0, baseline = 0, compile_cycles = 0, execute_cycles = 0, via_tag = 0;
  double total_samples = 0;
  std::vector<double> queue_wait_ms, periods;
  for (const TicketRecord& record : traced) {
    const QueryTicket& ticket = service.ticket(record.id);
    const DirectCost& cost = direct.at(record.draw);
    if (exact_split && ticket.session != nullptr &&
        (ticket.execute_cycles != cost.cycles ||
         ticket.session->samples().size() != cost.samples)) {
      direct_mismatch = dfp::StrFormat(
          "engine-direct run of %s differs from its ticket: %llu vs %llu cycles, %llu vs %zu "
          "samples", ticket.name.c_str(), static_cast<unsigned long long>(cost.cycles),
          static_cast<unsigned long long>(ticket.execute_cycles),
          static_cast<unsigned long long>(cost.samples), ticket.session->samples().size());
    }
    compile_ns += ticket.cache_hit ? 0 : cost.compile_ns;
    execute_ns += cost.execute_ns;
    resolve_ns += cost.resolve_ns;
    reset_ns += cost.reset_ns;
    scratch_mib += cost.scratch_mib;
    for (const dfp::PipelineArtifact& artifact : ticket.plan->query.pipelines) {
      ir += artifact.stats.ir_instrs;
      machine += artifact.stats.machine_instrs;
      spilled += artifact.stats.spilled_vregs;
    }
    if (ticket.session != nullptr) {
      samples += static_cast<double>(ticket.session->samples().size());
      const dfp::AttributionStats stats = ticket.session->Stats();
      via_tag += static_cast<double>(stats.via_tag);
      total_samples += static_cast<double>(stats.total);
    }
    flushes += static_cast<double>(ticket.sampling_overhead.flushes);
    patched_sites += static_cast<double>(ticket.patched_sites);
    hits += ticket.cache_hit ? 1 : 0;
    baseline += ticket.tier == dfp::PlanTier::kBaseline ? 1 : 0;
    compile_cycles += static_cast<double>(ticket.compile_cycles);
    execute_cycles += static_cast<double>(ticket.execute_cycles);
    // Signed: compile runs on the least-loaded lane, so it can overlap the latency window.
    queue_wait_ms.push_back(
        (static_cast<double>(ticket.completed_at_cycles - record.submitted_at_cycles) -
         static_cast<double>(ticket.compile_cycles + ticket.execute_cycles)) /
        (dfp::kClockGhz * 1e6));
    periods.push_back(static_cast<double>(ticket.sampling_period));
  }
  std::vector<double> compile_ms;
  double direct_compile_ns = 0, direct_ir = 0, direct_execute_s = 0, direct_instr = 0;
  double direct_resolve_ns = 0, direct_samples = 0;
  for (const auto& [draw, cost] : direct) {
    compile_ms.push_back(cost.compile_ns / 1e6);
    direct_compile_ns += cost.compile_ns;
    direct_ir += static_cast<double>(cost.ir_instrs);
    direct_execute_s += cost.execute_ns / 1e9;
    direct_instr += static_cast<double>(cost.instructions);
    direct_resolve_ns += cost.resolve_ns;
    direct_samples += static_cast<double>(cost.samples);
  }

  // Span self times as shares of request time; the engine-direct costs split what the spans
  // cannot see inside Drain.
  std::map<std::string, int64_t> self = SelfTimeByName(rec.spans(), "request");
  std::map<std::string, std::vector<double>> span_us;
  std::map<std::string, double> total_ns;
  for (const Span& span : rec.spans()) {
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    span_us[span.name].push_back(ns / 1e3);
    total_ns[span.name] += ns;
  }
  const double request_ns = total_ns["request"];
  const double drain_ns = total_ns["drain"];
  const double report_ns = total_ns["report"];
  const double service_self_ns = drain_ns - compile_ns - execute_ns - resolve_ns;

  const WorkerTotals workers = SumWorkers(service, traced);
  const dfp::PlanCacheStats& cache = service.plan_cache().stats();
  uint64_t lane_sum = 0;
  for (uint64_t lane : service.lane_cycles()) {
    lane_sum += lane;
  }
  std::vector<double> db_ctor_s, datagen_s, warmup_s;
  for (const SetupTimes& times : setups) {
    db_ctor_s.push_back(times.db_ctor_s);
    datagen_s.push_back(times.datagen_s);
    warmup_s.push_back(times.warmup_s);
  }
  const double untraced_qps = static_cast<double>(untraced_tickets) / untraced_s;
  const double traced_qps = n / traced_s;
  const uint64_t guard_decisions = service.tier_controller().transitions().size() +
                                   service.repairs().actions().size() +
                                   service.reopts().actions().size();

  MetricSet set;
  set.Add("engine.db_ctor_s", Median(db_ctor_s), "s", false);
  set.Add("tpch.datagen_s", Median(datagen_s), "s", false);
  set.Add("service.warmup_s", Median(warmup_s), "s", false);
  set.Add("sql.parse_us", Mean(span_us["parse"]), "us", false);
  set.Add("sql.bind_us", Mean(span_us["bind"]), "us", false);
  set.Add("engine.compile_ms", Mean(compile_ms), "ms", false);
  set.Add("backend.ir_instrs", ir / n, "count", true);
  set.Add("backend.machine_instrs", machine / n, "count", true);
  set.Add("backend.spilled_vregs", spilled / n, "count", true);
  set.Add("backend.compile_ns_per_ir_instr", direct_compile_ns / direct_ir, "ns", false);
  set.Add("engine.code_segments", code_segments, "count", true);
  set.Add("vcpu.execute_ms", execute_ns / n / 1e6, "ms", false);
  set.Add("vcpu.sim_instr_per_s", direct_instr / direct_execute_s, "instr/s", false);
  set.Add("vcpu.run_fixed_us", run_fixed_us, "us", false);
  set.Add("vmem.reset_us", reset_ns / n / 1e3, "us", false);
  set.Add("vmem.scratch_mib", scratch_mib / n, "MiB", true);
  set.Add("vcpu.instr_per_query", static_cast<double>(workers.instructions) / n, "count", true);
  set.Add("vcpu.cpi",
          static_cast<double>(workers.busy) / static_cast<double>(workers.instructions),
          "cycles/instr", true);
  set.Add("vcpu.l1_miss_pct",
          Share(static_cast<double>(workers.l1_misses), static_cast<double>(workers.accesses)),
          "%", true);
  set.Add("vcpu.l3_miss_per_kinstr",
          1e3 * static_cast<double>(workers.l3_misses) / static_cast<double>(workers.instructions),
          "count", true);
  set.Add("vcpu.remote_access_pct",
          Share(static_cast<double>(workers.remote),
                static_cast<double>(workers.local + workers.remote)),
          "%", true);
  set.Add("vcpu.worker_idle_pct",
          Share(static_cast<double>(workers.idle),
                static_cast<double>(workers.busy + workers.idle)),
          "%", true);
  set.Add("vcpu.steals_per_query", static_cast<double>(workers.steals) / n, "count", true);
  set.Add("pmu.samples_per_query", samples / n, "count", true);
  set.Add("pmu.flushes_per_query", flushes / n, "count", true);
  set.Add("profiling.resolve_us", resolve_ns / n / 1e3, "us", false);
  set.Add("profiling.resolve_ns_per_sample", direct_resolve_ns / direct_samples, "ns", false);
  set.Add("profiling.report_us", report_ns / n / 1e3, "us", false);
  set.Add("profiling.via_tag_pct", Share(via_tag, total_samples), "%", true);
  set.Add("service.submit_us", Mean(span_us["submit"]), "us", false);
  set.Add("service.drain_ms", drain_ns / n / 1e6, "ms", false);
  set.Add("service.self_ms", service_self_ns / n / 1e6, "ms", false);
  set.Add("service.cache_hit_pct", Share(hits, n), "%", true);
  set.Add("service.evictions_per_kquery",
          1e3 * static_cast<double>(cache.evictions) / static_cast<double>(env.tickets.size()),
          "count", true);
  set.Add("service.queue_wait_ms_p50", Percentile(queue_wait_ms, 50), "sim_ms", true);
  set.Add("service.lane_busy_pct",
          Share(static_cast<double>(lane_sum),
                static_cast<double>(service.lane_cycles().size() * service.ServiceNowCycles())),
          "%", true);
  set.Add("service.sim_compile_pct", Share(compile_cycles, compile_cycles + execute_cycles), "%",
          true);
  set.Add("tiering.patched_hit_pct",
          Share(static_cast<double>(cache.patched_hits), static_cast<double>(cache.hits)), "%",
          true);
  set.Add("tiering.patched_sites_per_query", patched_sites / n, "count", true);
  set.Add("tiering.tier_swaps", static_cast<double>(cache.tier_swaps), "count", true);
  set.Add("tiering.baseline_pct", Share(baseline, n), "%", true);
  set.Add("continuous.sampling_period_p50", Percentile(periods, 50), "count", true);
  set.Add("service.guard_decisions", static_cast<double>(guard_decisions), "count", true);
  for (const char* layer : {"request", "parse", "bind", "submit", "drain", "report"}) {
    set.Add(dfp::StrFormat("self.%s_pct", layer),
            Share(static_cast<double>(self[layer]), request_ns), "%", false);
  }
  set.Add("share.compile_pct", Share(compile_ns, request_ns), "%", false);
  set.Add("share.execute_pct", Share(execute_ns, request_ns), "%", false);
  // Compile plus the executor's fixed cost per run: what an ad-hoc request pays besides
  // simulating its few thousand instructions.
  set.Add("share.compile_fixed_pct", Share(compile_ns + n * run_fixed_us * 1e3, request_ns), "%",
          false);
  set.Add("trace.overhead_pct", 100.0 * (untraced_qps / traced_qps - 1.0), "%", false);

  std::printf("# %s seed %llu traced: %zu warm-up tickets, %zu in untraced rounds at %.2f q/s, "
              "%zu in traced rounds at %.2f q/s; %zu distinct draws run engine-direct%s\n",
              WorkloadName(options.kind), static_cast<unsigned long long>(options.seed),
              env.warmup_tickets, untraced_tickets, untraced_qps, traced.size(), traced_qps,
              direct.size(),
              exact_split ? " (cycles and samples equal the tickets')"
                          : " (tiered code: the split is an estimate)");
  std::printf("# self time per layer, share of %.3f ms request time:\n", request_ns / 1e6);
  for (const auto& [name, ns] : self) {
    std::printf("#   %-10s %10.3f ms  %6.2f%%\n", name.c_str(), static_cast<double>(ns) / 1e6,
                Share(static_cast<double>(ns), request_ns));
  }
  std::printf("# inside drain (engine-direct estimate): compile %.3f ms, execute %.3f ms, "
              "resolve %.3f ms, service self %.3f ms\n",
              compile_ns / 1e6, execute_ns / 1e6, resolve_ns / 1e6, service_self_ns / 1e6);
  PrintMetrics(set);
  if (!options.state_dir.empty()) {
    const std::string path =
        dfp::StrFormat("%s/%s-seed%llu.spans.tsv", options.state_dir.c_str(),
                       WorkloadName(options.kind), static_cast<unsigned long long>(options.seed));
    std::filesystem::create_directories(options.state_dir);
    rec.WriteTsv(path);
    std::printf("# spans written to %s\n", path.c_str());
  }

  const bool correct =
      failed == 0 && ReportProblems({env.warmup_failure, direct_mismatch,
                                     CheckDeterminism(options, set.DeterministicText())});
  PrintResult(correct, env.tickets.size(), failed, set);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dfpbench

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <olap_warm|adhoc_cold|service_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--state-dir <dir>]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  dfpbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = dfpbench::ParseWorkload(value, &options.kind);
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--state-dir") {
      options.state_dir = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_workload || argc % 2 == 0) {
    Usage(argv[0]);
  }
  try {
    return options.trace ? dfpbench::TracedMain(options) : dfpbench::RunEndToEnd(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dfpbench: %s\n", error.what());
    return 1;
  }
}
