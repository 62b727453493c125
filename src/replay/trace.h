// Deterministic workload traces: the recorded half of fleet record/replay.
//
// A WorkloadTrace captures everything needed to re-run admitted traffic bit-for-bit against a
// fresh QueryService — and everything needed to diff the re-run against what was observed the
// first time:
//
//  - the service knobs the traffic ran under (scheduler, session limits, sampling, tiering...),
//    so a replay reconstructs the same configuration and a what-if run overrides parts of it;
//  - one serialized plan template per structural fingerprint (src/replay/plan_codec.h), plus
//    per-query literal bindings, so every submission can be rebuilt without the SQL front end;
//  - the submission schedule: per query its arrival service-clock TSC, session weight, deadline,
//    and admission outcome, with Drain() boundaries preserved as explicit markers (the scheduler
//    admits inside Drain, so batch boundaries are part of the workload, not an artifact);
//  - the recorded observations: per-query completion metrics including an FNV-1a hash of the
//    serialized sample stream, and a fleet summary (throughput, per-fingerprint latency
//    quantiles, hottest operators, tier timeline totals) that the ReplayReport diffs against.
//
// The text format has one version, like every dfp text format: readers reject any other header
// instead of guessing. Serialization is a fixed point: parse(write(trace)) == trace and
// write(parse(text)) == text, which the format tests pin down.
#ifndef DFP_SRC_REPLAY_TRACE_H_
#define DFP_SRC_REPLAY_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/engine/parallel.h"
#include "src/pmu/event.h"
#include "src/service/fingerprint.h"
#include "src/service/plan_cache.h"
#include "src/service/query_service.h"
#include "src/tiering/literals.h"
#include "src/tiering/report.h"

namespace dfp {

// FNV-1a 64-bit over a byte string — the stream-identity hash stored per recorded query.
uint64_t Fnv1a64(const std::string& bytes);

// The service configuration a trace was recorded under, flattened to value types so it
// round-trips through text. ApplyKnobs rebuilds a ServiceConfig; CaptureKnobs flattens one.
// Regression thresholds and the state_path are deliberately not captured: neither influences
// execution, and replay always starts from a fresh service (see TraceRecorder).
struct TraceKnobs {
  // Parallel pool.
  uint32_t workers = 4;
  uint64_t morsel_rows = 0;
  uint8_t scheduler = static_cast<uint8_t>(SchedulerPolicy::kWorkStealing);
  uint32_t numa_nodes = 0;
  // Admission.
  uint32_t max_active_sessions = 2;
  uint32_t queue_depth = 16;
  uint64_t default_deadline_cycles = 0;
  // Plan cache and session arenas.
  uint64_t code_budget_bytes = 1ull << 20;
  uint64_t session_hashtables_bytes = 48ull << 20;
  uint64_t session_state_bytes = 512ull * 1024;
  uint64_t session_output_bytes = 24ull << 20;
  // Profiling.
  bool profile_executions = true;
  uint8_t pmu_event = 0;
  uint64_t sampling_period = 5000;
  bool capture_address = false;
  uint8_t attribution = 0;
  bool tag_all_instructions = false;
  bool enable_sampling = true;
  bool packed_tags = false;
  // Compile cost model.
  CompileCostModel compile_costs;
  // Continuous profiling.
  bool windows_enabled = true;
  uint64_t window_width_cycles = 20'000'000;
  uint64_t ring_windows = 8;
  bool governor_enabled = false;
  double governor_budget = 0.02;
  uint64_t governor_min_period = 500;
  uint64_t governor_max_period = 5'000'000;
  double governor_smoothing = 0.7;
  // Tiering.
  bool tiering_enabled = false;
  double break_even_ratio = 1.0;
  uint64_t min_executions = 2;
  // Profile-feedback scheduling (the `sched` knob line).
  bool slack_scheduling = false;
  bool placement_repair = false;
  bool deadline_admission = false;
  uint64_t slack_max_age = 64;
  bool repair_pessimize = false;
  // Closed-loop re-optimization (the `reopt` knob line), captured in full — including the
  // guard thresholds, since a replayed keep/revert verdict must judge by the recorded bar.
  bool reopt_enabled = false;
  uint64_t reopt_divergence_pct = 400;
  uint64_t reopt_min_executions = 3;
  bool reopt_semi_join_reduction = false;
  uint64_t reopt_semi_join_blowup_pct = 300;
  bool reopt_pessimize = false;
  RegressionThresholds reopt_guard = ReoptGuardThresholds();

  bool operator==(const TraceKnobs& other) const;
};

TraceKnobs CaptureKnobs(const ServiceConfig& config);
ServiceConfig ApplyKnobs(const TraceKnobs& knobs);

enum class TraceOutcome : uint8_t {
  kAdmitted = 0,  // Entered the queue (and, the queue being drained, eventually ran).
  kRejected = 1,  // Bounced at submission: queue full.
};

// One recorded submission plus its observed completion.
struct TraceQuery {
  uint32_t seq = 0;  // 1-based submission index (== TicketId in the recording service).
  std::string name;
  PlanFingerprint fingerprint;
  uint64_t arrival_cycles = 0;  // Service clock at submission.
  uint32_t weight = 1;
  uint64_t deadline_cycles = 0;
  TraceOutcome outcome = TraceOutcome::kAdmitted;
  std::vector<LiteralBinding> literals;  // Full binding vector in fingerprint walk order.

  // Observed completion (valid when `completed`; rejected queries never complete).
  bool completed = false;
  uint8_t status = 0;  // TicketStatus of the finished ticket (kDone or kTimedOut).
  bool cache_hit = false;
  uint8_t tier = 0;  // PlanTier the executed code was compiled at.
  uint64_t patched_sites = 0;
  uint64_t compile_cycles = 0;
  uint64_t execute_cycles = 0;
  uint64_t completed_at_cycles = 0;
  uint64_t result_rows = 0;
  uint64_t samples = 0;
  uint64_t stream_hash = 0;  // FNV-1a of the WriteSamples() text; 0 when unprofiled.
};

// One plan family's recorded aggregate, diffed per fingerprint by the ReplayReport.
struct TraceFingerprintSummary {
  uint64_t structure = 0;
  std::string name;
  uint64_t executions = 0;
  uint64_t execute_cycles = 0;
  uint64_t latency_p50 = 0;  // Window-rollup quantiles (simulated cycles).
  uint64_t latency_p95 = 0;
  uint64_t latency_max = 0;
  std::string top_operator;  // Label of the hottest operator by cumulative samples.
  uint64_t top_operator_samples = 0;
};

// Fleet-level observations of the recorded run.
struct TraceSummary {
  uint64_t queries = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t timed_out = 0;
  uint64_t service_cycles = 0;  // ServiceNowCycles() after the last drain.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t patched_hits = 0;
  uint64_t tier_swaps = 0;
  uint64_t samples = 0;
  uint64_t stream_hash = 0;  // FNV chain over per-query stream hashes in seq order.
  TierTimelineTotals tiers;
  std::vector<TraceFingerprintSummary> fingerprints;  // Ascending by structure.
};

// One plan template: the first-seen finalized plan of a structural fingerprint, serialized.
struct PlanTemplate {
  uint64_t structure = 0;
  std::string name;
  std::string plan_text;  // src/replay/plan_codec block (ends with "endplan\n").
};

// The recorded event schedule. Query events reference `WorkloadTrace::queries` by seq; drain
// events mark where the recording client called QueryService::Drain().
struct TraceEvent {
  enum class Kind : uint8_t { kQuery, kDone, kDrain };
  Kind kind = Kind::kQuery;
  uint32_t seq = 0;  // Query/done: submission index. Drain: submissions seen so far.
};

struct WorkloadTrace {
  uint64_t catalog_version = 0;
  uint64_t start_cycles = 0;  // Service clock when recording began (0 for a fresh service).
  TraceKnobs knobs;
  std::vector<PlanTemplate> templates;  // Ascending by structure (first-seen plan each).
  std::vector<TraceQuery> queries;      // Submission order; queries[i].seq == i + 1.
  std::vector<TraceEvent> events;       // Chronological submit/complete/drain schedule.
  TraceSummary summary;

  const TraceQuery& query(uint32_t seq) const { return queries[seq - 1]; }
  const PlanTemplate* FindTemplate(uint64_t structure) const;
};

// Line-oriented text format (see DESIGN.md §2f for the grammar):
//   # dfp trace v4
//   catalog <version>
//   start <cycles>
//   knobs <flattened TraceKnobs fields, doubles as IEEE-754 bit patterns>
//   costs <nine CompileCostModel fields>
//   sched <slack-scheduling> <placement-repair> <deadline-admission> <slack-max-age>
//         <repair-pessimize>
//   reopt <enabled> <divergence-pct> <min-executions> <semi-join> <blowup-pct> <pessimize>
//         <five guard doubles as IEEE-754 bit patterns> <guard-min-samples>
//   template <structure-hex> <name-token>
//   <plan codec block ... endplan>
//   query <seq> <name-token> <structure-hex> <literals-hex> <pinned-hex> <arrival> <weight>
//         <deadline> <admitted|rejected> <nbindings> (V <value> | P <pattern-token> | M <limit>)*
//   done <seq> <status> <hit> <tier> <patched> <compile> <execute> <completed> <rows> <samples>
//        <streamhash-hex>
//   drain <submissions-so-far>
//   summary <totals...>
//   tiers <samples> <baseline> <optimized> <transitions> <swapped>
//   fp <structure-hex> <execs> <cycles> <p50> <p95> <max> <topsamples> <top-token> <name-token>
//   end
// The header through the `reopt` knob line is a fixed sequence; the body lines may come in any
// order. Readers reject every header but v4 ("regenerate with this build" — no guessing) and
// throw dfp::Error on truncation or malformed lines.
void WriteTrace(const WorkloadTrace& trace, std::ostream& out);
std::string EncodeTraceText(const WorkloadTrace& trace);

// Inverse of WriteTrace. `db` resolves the plan templates' table references (pass the catalog
// the trace was recorded against — the replayer separately enforces the catalog version).
WorkloadTrace ReadTrace(std::istream& in);

}  // namespace dfp

#endif  // DFP_SRC_REPLAY_TRACE_H_
