#include "src/replay/trace.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/replay/plan_codec.h"
#include "src/util/check.h"
#include "src/util/str.h"

namespace dfp {
namespace {

constexpr char kTraceHeaderPrefix[] = "# dfp trace v";
constexpr int kTraceVersion = 4;

[[noreturn]] void Malformed(const std::string& line) {
  throw Error("malformed trace line: '" + line + "'");
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Reads the next line, requiring its first token to be `keyword`; returns a stream positioned
// after the keyword.
std::istringstream ExpectLine(std::istream& in, const std::string& keyword, std::string& line) {
  if (!std::getline(in, line)) {
    throw Error("truncated trace: '" + keyword + "' line expected");
  }
  std::istringstream stream = FieldStream(line);
  std::string token;
  stream >> token;
  if (token != keyword) {
    Malformed(line);
  }
  return stream;
}

void RejectTrailing(std::istringstream& stream, const std::string& line) {
  std::string trailing;
  if (stream >> trailing) {
    Malformed(line);
  }
}

}  // namespace

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

bool TraceKnobs::operator==(const TraceKnobs& other) const {
  const CompileCostModel& a = compile_costs;
  const CompileCostModel& b = other.compile_costs;
  return workers == other.workers && morsel_rows == other.morsel_rows &&
         scheduler == other.scheduler && numa_nodes == other.numa_nodes &&
         max_active_sessions == other.max_active_sessions && queue_depth == other.queue_depth &&
         default_deadline_cycles == other.default_deadline_cycles &&
         code_budget_bytes == other.code_budget_bytes &&
         session_hashtables_bytes == other.session_hashtables_bytes &&
         session_state_bytes == other.session_state_bytes &&
         session_output_bytes == other.session_output_bytes &&
         profile_executions == other.profile_executions && pmu_event == other.pmu_event &&
         sampling_period == other.sampling_period && capture_address == other.capture_address &&
         attribution == other.attribution &&
         tag_all_instructions == other.tag_all_instructions &&
         enable_sampling == other.enable_sampling && packed_tags == other.packed_tags &&
         a.base_cycles == b.base_cycles && a.per_ir_instr == b.per_ir_instr &&
         a.per_machine_instr == b.per_machine_instr &&
         a.cache_lookup_cycles == b.cache_lookup_cycles &&
         a.baseline_base_cycles == b.baseline_base_cycles &&
         a.baseline_per_ir_instr == b.baseline_per_ir_instr &&
         a.baseline_per_machine_instr == b.baseline_per_machine_instr &&
         a.patch_per_site_cycles == b.patch_per_site_cycles &&
         windows_enabled == other.windows_enabled &&
         window_width_cycles == other.window_width_cycles && ring_windows == other.ring_windows &&
         governor_enabled == other.governor_enabled &&
         DoubleBits(governor_budget) == DoubleBits(other.governor_budget) &&
         governor_min_period == other.governor_min_period &&
         governor_max_period == other.governor_max_period &&
         DoubleBits(governor_smoothing) == DoubleBits(other.governor_smoothing) &&
         tiering_enabled == other.tiering_enabled &&
         DoubleBits(break_even_ratio) == DoubleBits(other.break_even_ratio) &&
         min_executions == other.min_executions &&
         slack_scheduling == other.slack_scheduling &&
         placement_repair == other.placement_repair &&
         deadline_admission == other.deadline_admission &&
         slack_max_age == other.slack_max_age && repair_pessimize == other.repair_pessimize &&
         reopt_enabled == other.reopt_enabled &&
         reopt_divergence_pct == other.reopt_divergence_pct &&
         reopt_min_executions == other.reopt_min_executions &&
         reopt_semi_join_reduction == other.reopt_semi_join_reduction &&
         reopt_semi_join_blowup_pct == other.reopt_semi_join_blowup_pct &&
         reopt_pessimize == other.reopt_pessimize &&
         DoubleBits(reopt_guard.min_share) == DoubleBits(other.reopt_guard.min_share) &&
         DoubleBits(reopt_guard.share_drift) == DoubleBits(other.reopt_guard.share_drift) &&
         DoubleBits(reopt_guard.share_noise_z) == DoubleBits(other.reopt_guard.share_noise_z) &&
         DoubleBits(reopt_guard.cycles_per_row_ratio) ==
             DoubleBits(other.reopt_guard.cycles_per_row_ratio) &&
         DoubleBits(reopt_guard.remote_share_drift) ==
             DoubleBits(other.reopt_guard.remote_share_drift) &&
         reopt_guard.min_samples == other.reopt_guard.min_samples;
}

TraceKnobs CaptureKnobs(const ServiceConfig& config) {
  TraceKnobs knobs;
  knobs.workers = config.parallel.workers;
  knobs.morsel_rows = config.parallel.morsel_rows;
  knobs.scheduler = static_cast<uint8_t>(config.parallel.scheduler);
  knobs.numa_nodes = config.parallel.numa_nodes;
  knobs.max_active_sessions = config.max_active_sessions;
  knobs.queue_depth = config.queue_depth;
  knobs.default_deadline_cycles = config.default_deadline_cycles;
  knobs.code_budget_bytes = config.code_budget_bytes;
  knobs.session_hashtables_bytes = config.session_hashtables_bytes;
  knobs.session_state_bytes = config.session_state_bytes;
  knobs.session_output_bytes = config.session_output_bytes;
  knobs.profile_executions = config.profile_executions;
  knobs.pmu_event = static_cast<uint8_t>(config.profiling.event);
  knobs.sampling_period = config.profiling.period;
  knobs.capture_address = config.profiling.capture_address;
  knobs.attribution = static_cast<uint8_t>(config.profiling.attribution);
  knobs.tag_all_instructions = config.profiling.tag_all_instructions;
  knobs.enable_sampling = config.profiling.enable_sampling;
  knobs.packed_tags = config.profiling.packed_tags;
  knobs.compile_costs = config.compile_costs;
  knobs.windows_enabled = config.continuous.windows_enabled;
  knobs.window_width_cycles = config.continuous.window.width_cycles;
  knobs.ring_windows = config.continuous.window.ring_windows;
  knobs.governor_enabled = config.continuous.governor.enabled;
  knobs.governor_budget = config.continuous.governor.overhead_budget;
  knobs.governor_min_period = config.continuous.governor.min_period;
  knobs.governor_max_period = config.continuous.governor.max_period;
  knobs.governor_smoothing = config.continuous.governor.smoothing;
  knobs.tiering_enabled = config.tiering.enabled;
  knobs.break_even_ratio = config.tiering.break_even_ratio;
  knobs.min_executions = config.tiering.min_executions;
  knobs.slack_scheduling = config.sched.slack_scheduling;
  knobs.placement_repair = config.sched.placement_repair;
  knobs.deadline_admission = config.sched.deadline_admission;
  knobs.slack_max_age = config.sched.slack_max_age;
  knobs.repair_pessimize = config.sched.repair_pessimize;
  knobs.reopt_enabled = config.reopt.enabled;
  knobs.reopt_divergence_pct = config.reopt.divergence_pct;
  knobs.reopt_min_executions = config.reopt.min_executions;
  knobs.reopt_semi_join_reduction = config.reopt.semi_join_reduction;
  knobs.reopt_semi_join_blowup_pct = config.reopt.semi_join_blowup_pct;
  knobs.reopt_pessimize = config.reopt.pessimize;
  knobs.reopt_guard = config.reopt.guard;
  return knobs;
}

ServiceConfig ApplyKnobs(const TraceKnobs& knobs) {
  ServiceConfig config;
  config.parallel.workers = knobs.workers;
  config.parallel.morsel_rows = knobs.morsel_rows;
  config.parallel.scheduler = static_cast<SchedulerPolicy>(knobs.scheduler);
  config.parallel.numa_nodes = knobs.numa_nodes;
  config.max_active_sessions = knobs.max_active_sessions;
  config.queue_depth = knobs.queue_depth;
  config.default_deadline_cycles = knobs.default_deadline_cycles;
  config.code_budget_bytes = knobs.code_budget_bytes;
  config.session_hashtables_bytes = knobs.session_hashtables_bytes;
  config.session_state_bytes = knobs.session_state_bytes;
  config.session_output_bytes = knobs.session_output_bytes;
  config.profile_executions = knobs.profile_executions;
  config.profiling.event = static_cast<PmuEvent>(knobs.pmu_event);
  config.profiling.period = knobs.sampling_period;
  config.profiling.capture_address = knobs.capture_address;
  config.profiling.attribution = static_cast<AttributionMode>(knobs.attribution);
  config.profiling.tag_all_instructions = knobs.tag_all_instructions;
  config.profiling.enable_sampling = knobs.enable_sampling;
  config.profiling.packed_tags = knobs.packed_tags;
  config.compile_costs = knobs.compile_costs;
  config.continuous.windows_enabled = knobs.windows_enabled;
  config.continuous.window.width_cycles = knobs.window_width_cycles;
  config.continuous.window.ring_windows = knobs.ring_windows;
  config.continuous.governor.enabled = knobs.governor_enabled;
  config.continuous.governor.overhead_budget = knobs.governor_budget;
  config.continuous.governor.min_period = knobs.governor_min_period;
  config.continuous.governor.max_period = knobs.governor_max_period;
  config.continuous.governor.smoothing = knobs.governor_smoothing;
  config.tiering.enabled = knobs.tiering_enabled;
  config.tiering.break_even_ratio = knobs.break_even_ratio;
  config.tiering.min_executions = knobs.min_executions;
  config.sched.slack_scheduling = knobs.slack_scheduling;
  config.sched.placement_repair = knobs.placement_repair;
  config.sched.deadline_admission = knobs.deadline_admission;
  config.sched.slack_max_age = knobs.slack_max_age;
  config.sched.repair_pessimize = knobs.repair_pessimize;
  config.reopt.enabled = knobs.reopt_enabled;
  config.reopt.divergence_pct = knobs.reopt_divergence_pct;
  config.reopt.min_executions = knobs.reopt_min_executions;
  config.reopt.semi_join_reduction = knobs.reopt_semi_join_reduction;
  config.reopt.semi_join_blowup_pct = knobs.reopt_semi_join_blowup_pct;
  config.reopt.pessimize = knobs.reopt_pessimize;
  config.reopt.guard = knobs.reopt_guard;
  return config;
}

const PlanTemplate* WorkloadTrace::FindTemplate(uint64_t structure) const {
  for (const PlanTemplate& entry : templates) {
    if (entry.structure == structure) {
      return &entry;
    }
  }
  return nullptr;
}

void WriteTrace(const WorkloadTrace& trace, std::ostream& out) {
  out << kTraceHeaderPrefix << kTraceVersion << "\n";
  out << "catalog " << trace.catalog_version << "\n";
  out << "start " << trace.start_cycles << "\n";
  const TraceKnobs& k = trace.knobs;
  out << "knobs " << k.workers << " " << k.morsel_rows << " " << static_cast<int>(k.scheduler)
      << " " << k.numa_nodes << " " << k.max_active_sessions << " " << k.queue_depth << " "
      << k.default_deadline_cycles << " " << k.code_budget_bytes << " "
      << k.session_hashtables_bytes << " " << k.session_state_bytes << " "
      << k.session_output_bytes << " " << (k.profile_executions ? 1 : 0) << " "
      << static_cast<int>(k.pmu_event) << " " << k.sampling_period << " "
      << (k.capture_address ? 1 : 0) << " " << static_cast<int>(k.attribution) << " "
      << (k.tag_all_instructions ? 1 : 0) << " " << (k.enable_sampling ? 1 : 0) << " "
      << (k.packed_tags ? 1 : 0) << " " << (k.windows_enabled ? 1 : 0) << " "
      << k.window_width_cycles << " " << k.ring_windows << " " << (k.governor_enabled ? 1 : 0)
      << " " << HexU64(DoubleBits(k.governor_budget)) << " " << k.governor_min_period << " "
      << k.governor_max_period << " " << HexU64(DoubleBits(k.governor_smoothing)) << " "
      << (k.tiering_enabled ? 1 : 0) << " " << HexU64(DoubleBits(k.break_even_ratio)) << " "
      << k.min_executions << "\n";
  const CompileCostModel& c = k.compile_costs;
  out << "costs " << c.base_cycles << " " << c.per_ir_instr << " " << c.per_machine_instr << " "
      << c.cache_lookup_cycles << " " << c.baseline_base_cycles << " " << c.baseline_per_ir_instr
      << " " << c.baseline_per_machine_instr << " " << c.patch_per_site_cycles << "\n";
  out << "sched " << (k.slack_scheduling ? 1 : 0) << " " << (k.placement_repair ? 1 : 0) << " "
      << (k.deadline_admission ? 1 : 0) << " " << k.slack_max_age << " "
      << (k.repair_pessimize ? 1 : 0) << "\n";
  out << "reopt " << (k.reopt_enabled ? 1 : 0) << " " << k.reopt_divergence_pct << " "
      << k.reopt_min_executions << " " << (k.reopt_semi_join_reduction ? 1 : 0) << " "
      << k.reopt_semi_join_blowup_pct << " " << (k.reopt_pessimize ? 1 : 0) << " "
      << HexU64(DoubleBits(k.reopt_guard.min_share)) << " "
      << HexU64(DoubleBits(k.reopt_guard.share_drift)) << " "
      << HexU64(DoubleBits(k.reopt_guard.share_noise_z)) << " "
      << HexU64(DoubleBits(k.reopt_guard.cycles_per_row_ratio)) << " "
      << HexU64(DoubleBits(k.reopt_guard.remote_share_drift)) << " "
      << k.reopt_guard.min_samples << "\n";
  for (const PlanTemplate& entry : trace.templates) {
    out << "template " << HexU64(entry.structure) << " " << EncodeToken(entry.name) << "\n";
    out << entry.plan_text;  // Self-delimiting: ends with "endplan\n".
  }
  for (const TraceEvent& event : trace.events) {
    switch (event.kind) {
      case TraceEvent::Kind::kQuery: {
        const TraceQuery& q = trace.query(event.seq);
        out << "query " << q.seq << " " << EncodeToken(q.name) << " "
            << HexU64(q.fingerprint.structure) << " " << HexU64(q.fingerprint.literals) << " "
            << HexU64(q.fingerprint.pinned) << " " << q.arrival_cycles << " " << q.weight << " "
            << q.deadline_cycles << " "
            << (q.outcome == TraceOutcome::kAdmitted ? "admitted" : "rejected") << " "
            << q.literals.size();
        for (const LiteralBinding& binding : q.literals) {
          switch (binding.kind) {
            case LiteralBinding::Kind::kValue:
              out << " V " << binding.value;
              break;
            case LiteralBinding::Kind::kPattern:
              out << " P " << EncodeToken(binding.pattern);
              break;
            case LiteralBinding::Kind::kLimit:
              out << " M " << binding.value;
              break;
          }
        }
        out << "\n";
        break;
      }
      case TraceEvent::Kind::kDone: {
        const TraceQuery& q = trace.query(event.seq);
        out << "done " << q.seq << " " << static_cast<int>(q.status) << " "
            << (q.cache_hit ? 1 : 0) << " " << static_cast<int>(q.tier) << " " << q.patched_sites
            << " " << q.compile_cycles << " " << q.execute_cycles << " " << q.completed_at_cycles
            << " " << q.result_rows << " " << q.samples << " " << HexU64(q.stream_hash) << "\n";
        break;
      }
      case TraceEvent::Kind::kDrain:
        out << "drain " << event.seq << "\n";
        break;
    }
  }
  const TraceSummary& s = trace.summary;
  out << "summary " << s.queries << " " << s.completed << " " << s.rejected << " " << s.timed_out
      << " " << s.service_cycles << " " << s.cache_hits << " " << s.cache_misses << " "
      << s.patched_hits << " " << s.tier_swaps << " " << s.samples << " "
      << HexU64(s.stream_hash) << "\n";
  out << "tiers " << s.tiers.samples << " " << s.tiers.baseline_samples << " "
      << s.tiers.optimized_samples << " " << s.tiers.transitions << " " << s.tiers.swapped
      << "\n";
  for (const TraceFingerprintSummary& fp : s.fingerprints) {
    out << "fp " << HexU64(fp.structure) << " " << fp.executions << " " << fp.execute_cycles
        << " " << fp.latency_p50 << " " << fp.latency_p95 << " " << fp.latency_max << " "
        << fp.top_operator_samples << " " << EncodeToken(fp.top_operator) << " "
        << EncodeToken(fp.name) << "\n";
  }
  out << "end\n";
}

std::string EncodeTraceText(const WorkloadTrace& trace) {
  std::ostringstream out;
  WriteTrace(trace, out);
  return out.str();
}

WorkloadTrace ReadTrace(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw Error("empty trace: version header expected");
  }
  CheckFormatHeader(line, kTraceHeaderPrefix, kTraceVersion, "dfp trace");

  WorkloadTrace trace;
  {
    std::istringstream stream = ExpectLine(in, "catalog", line);
    if (!(stream >> trace.catalog_version)) {
      Malformed(line);
    }
    RejectTrailing(stream, line);
  }
  {
    std::istringstream stream = ExpectLine(in, "start", line);
    if (!(stream >> trace.start_cycles)) {
      Malformed(line);
    }
    RejectTrailing(stream, line);
  }
  {
    std::istringstream stream = ExpectLine(in, "knobs", line);
    TraceKnobs& k = trace.knobs;
    int scheduler = 0;
    int profile = 0;
    int event = 0;
    int capture = 0;
    int attribution = 0;
    int tag_all = 0;
    int sampling = 0;
    int packed = 0;
    int windows = 0;
    int governor = 0;
    int tiering = 0;
    std::string budget_hex;
    std::string smoothing_hex;
    std::string break_even_hex;
    if (!(stream >> k.workers >> k.morsel_rows >> scheduler >> k.numa_nodes >>
          k.max_active_sessions >> k.queue_depth >> k.default_deadline_cycles >>
          k.code_budget_bytes >> k.session_hashtables_bytes >> k.session_state_bytes >>
          k.session_output_bytes >> profile >> event >> k.sampling_period >> capture >>
          attribution >> tag_all >> sampling >> packed >> windows >> k.window_width_cycles >>
          k.ring_windows >> governor >> budget_hex >> k.governor_min_period >>
          k.governor_max_period >> smoothing_hex >> tiering >> break_even_hex >>
          k.min_executions) ||
        scheduler < 0 || scheduler > static_cast<int>(SchedulerPolicy::kWorkStealing) ||
        event < 0 || event >= static_cast<int>(PmuEvent::kEventCount) || attribution < 0 ||
        attribution > static_cast<int>(AttributionMode::kCallStack)) {
      Malformed(line);
    }
    RejectTrailing(stream, line);
    k.scheduler = static_cast<uint8_t>(scheduler);
    k.profile_executions = profile != 0;
    k.pmu_event = static_cast<uint8_t>(event);
    k.capture_address = capture != 0;
    k.attribution = static_cast<uint8_t>(attribution);
    k.tag_all_instructions = tag_all != 0;
    k.enable_sampling = sampling != 0;
    k.packed_tags = packed != 0;
    k.windows_enabled = windows != 0;
    k.governor_enabled = governor != 0;
    k.governor_budget = BitsToDouble(ParseHexU64(budget_hex, line));
    k.governor_smoothing = BitsToDouble(ParseHexU64(smoothing_hex, line));
    k.tiering_enabled = tiering != 0;
    k.break_even_ratio = BitsToDouble(ParseHexU64(break_even_hex, line));
  }
  {
    std::istringstream stream = ExpectLine(in, "costs", line);
    CompileCostModel& c = trace.knobs.compile_costs;
    if (!(stream >> c.base_cycles >> c.per_ir_instr >> c.per_machine_instr >>
          c.cache_lookup_cycles >> c.baseline_base_cycles >> c.baseline_per_ir_instr >>
          c.baseline_per_machine_instr >> c.patch_per_site_cycles)) {
      Malformed(line);
    }
    RejectTrailing(stream, line);
  }

  {
    std::istringstream stream = ExpectLine(in, "sched", line);
    TraceKnobs& k = trace.knobs;
    int slack = 0;
    int repair = 0;
    int admission = 0;
    int pessimize = 0;
    if (!(stream >> slack >> repair >> admission >> k.slack_max_age >> pessimize)) {
      Malformed(line);
    }
    RejectTrailing(stream, line);
    k.slack_scheduling = slack != 0;
    k.placement_repair = repair != 0;
    k.deadline_admission = admission != 0;
    k.repair_pessimize = pessimize != 0;
  }
  {
    std::istringstream stream = ExpectLine(in, "reopt", line);
    TraceKnobs& k = trace.knobs;
    int enabled = 0;
    int semi_join = 0;
    int pessimize = 0;
    std::string min_share_hex;
    std::string share_drift_hex;
    std::string noise_z_hex;
    std::string ratio_hex;
    std::string remote_hex;
    if (!(stream >> enabled >> k.reopt_divergence_pct >> k.reopt_min_executions >> semi_join >>
          k.reopt_semi_join_blowup_pct >> pessimize >> min_share_hex >> share_drift_hex >>
          noise_z_hex >> ratio_hex >> remote_hex >> k.reopt_guard.min_samples)) {
      Malformed(line);
    }
    RejectTrailing(stream, line);
    k.reopt_enabled = enabled != 0;
    k.reopt_semi_join_reduction = semi_join != 0;
    k.reopt_pessimize = pessimize != 0;
    k.reopt_guard.min_share = BitsToDouble(ParseHexU64(min_share_hex, line));
    k.reopt_guard.share_drift = BitsToDouble(ParseHexU64(share_drift_hex, line));
    k.reopt_guard.share_noise_z = BitsToDouble(ParseHexU64(noise_z_hex, line));
    k.reopt_guard.cycles_per_row_ratio = BitsToDouble(ParseHexU64(ratio_hex, line));
    k.reopt_guard.remote_share_drift = BitsToDouble(ParseHexU64(remote_hex, line));
  }

  // Body: templates, then the event schedule, then the summary block. The writer emits them in
  // that order; the reader accepts each keyword wherever it appears so the fixed-point property
  // is a statement about the writer's canonical order, not a parser restriction.
  bool saw_summary = false;
  bool saw_tiers = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    std::istringstream stream = FieldStream(line);
    std::string keyword;
    stream >> keyword;
    if (keyword == "template") {
      PlanTemplate entry;
      std::string structure_hex;
      std::string name_token;
      if (!(stream >> structure_hex >> name_token)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      entry.structure = ParseHexU64(structure_hex, line);
      entry.name = DecodeToken(name_token);
      // Consume the plan block verbatim (it is validated against the catalog at replay time —
      // a trace file alone has no Database to resolve tables against).
      std::string plan_line;
      bool terminated = false;
      while (std::getline(in, plan_line)) {
        entry.plan_text += plan_line;
        entry.plan_text += "\n";
        if (plan_line == "endplan") {
          terminated = true;
          break;
        }
        if (plan_line.rfind("op ", 0) != 0 && plan_line.rfind("x ", 0) != 0) {
          Malformed(plan_line);
        }
      }
      if (!terminated) {
        throw Error("truncated trace: template plan block missing 'endplan'");
      }
      trace.templates.push_back(std::move(entry));
    } else if (keyword == "query") {
      TraceQuery q;
      std::string name_token;
      std::string structure_hex;
      std::string literals_hex;
      std::string pinned_hex;
      std::string outcome_token;
      size_t bindings = 0;
      if (!(stream >> q.seq >> name_token >> structure_hex >> literals_hex >> pinned_hex >>
            q.arrival_cycles >> q.weight >> q.deadline_cycles >> outcome_token >> bindings)) {
        Malformed(line);
      }
      q.name = DecodeToken(name_token);
      q.fingerprint.structure = ParseHexU64(structure_hex, line);
      q.fingerprint.literals = ParseHexU64(literals_hex, line);
      q.fingerprint.pinned = ParseHexU64(pinned_hex, line);
      if (outcome_token == "admitted") {
        q.outcome = TraceOutcome::kAdmitted;
      } else if (outcome_token == "rejected") {
        q.outcome = TraceOutcome::kRejected;
      } else {
        Malformed(line);
      }
      for (size_t i = 0; i < bindings; ++i) {
        std::string kind_token;
        if (!(stream >> kind_token)) {
          Malformed(line);
        }
        LiteralBinding binding;
        if (kind_token == "V") {
          binding.kind = LiteralBinding::Kind::kValue;
          if (!(stream >> binding.value)) {
            Malformed(line);
          }
        } else if (kind_token == "P") {
          binding.kind = LiteralBinding::Kind::kPattern;
          std::string pattern_token;
          if (!(stream >> pattern_token)) {
            Malformed(line);
          }
          binding.pattern = DecodeToken(pattern_token);
        } else if (kind_token == "M") {
          binding.kind = LiteralBinding::Kind::kLimit;
          if (!(stream >> binding.value)) {
            Malformed(line);
          }
        } else {
          Malformed(line);
        }
        q.literals.push_back(std::move(binding));
      }
      RejectTrailing(stream, line);
      if (q.seq != trace.queries.size() + 1) {
        throw Error("trace query out of order: seq " + std::to_string(q.seq) + " expected " +
                    std::to_string(trace.queries.size() + 1));
      }
      trace.events.push_back({TraceEvent::Kind::kQuery, q.seq});
      trace.queries.push_back(std::move(q));
    } else if (keyword == "done") {
      uint32_t seq = 0;
      int status = 0;
      int hit = 0;
      int tier = 0;
      std::string hash_hex;
      if (!(stream >> seq)) {
        Malformed(line);
      }
      if (seq == 0 || seq > trace.queries.size()) {
        throw Error("trace 'done' references unknown query seq " + std::to_string(seq));
      }
      TraceQuery& q = trace.queries[seq - 1];
      if (!(stream >> status >> hit >> tier >> q.patched_sites >> q.compile_cycles >>
            q.execute_cycles >> q.completed_at_cycles >> q.result_rows >> q.samples >>
            hash_hex) ||
          status < 0 || status > static_cast<int>(TicketStatus::kTimedOut) || hit < 0 ||
          hit > 1 || tier < 0 || tier > 1) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      q.completed = true;
      q.status = static_cast<uint8_t>(status);
      q.cache_hit = hit != 0;
      q.tier = static_cast<uint8_t>(tier);
      q.stream_hash = ParseHexU64(hash_hex, line);
      trace.events.push_back({TraceEvent::Kind::kDone, seq});
    } else if (keyword == "drain") {
      TraceEvent event;
      event.kind = TraceEvent::Kind::kDrain;
      if (!(stream >> event.seq)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      trace.events.push_back(event);
    } else if (keyword == "summary") {
      TraceSummary& s = trace.summary;
      std::string hash_hex;
      if (!(stream >> s.queries >> s.completed >> s.rejected >> s.timed_out >>
            s.service_cycles >> s.cache_hits >> s.cache_misses >> s.patched_hits >>
            s.tier_swaps >> s.samples >> hash_hex)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      s.stream_hash = ParseHexU64(hash_hex, line);
      saw_summary = true;
    } else if (keyword == "tiers") {
      TierTimelineTotals& t = trace.summary.tiers;
      if (!(stream >> t.samples >> t.baseline_samples >> t.optimized_samples >> t.transitions >>
            t.swapped)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      saw_tiers = true;
    } else if (keyword == "fp") {
      TraceFingerprintSummary fp;
      std::string structure_hex;
      std::string top_token;
      std::string name_token;
      if (!(stream >> structure_hex >> fp.executions >> fp.execute_cycles >> fp.latency_p50 >>
            fp.latency_p95 >> fp.latency_max >> fp.top_operator_samples >> top_token >>
            name_token)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      fp.structure = ParseHexU64(structure_hex, line);
      fp.top_operator = DecodeToken(top_token);
      fp.name = DecodeToken(name_token);
      trace.summary.fingerprints.push_back(std::move(fp));
    } else if (keyword == "end") {
      RejectTrailing(stream, line);
      saw_end = true;
      break;
    } else {
      Malformed(line);
    }
  }
  if (!saw_end) {
    throw Error("truncated trace: 'end' marker missing");
  }
  if (!saw_summary || !saw_tiers) {
    throw Error("truncated trace: summary block missing");
  }
  if (trace.summary.queries != trace.queries.size()) {
    throw Error("trace summary query count " + std::to_string(trace.summary.queries) +
                " does not match recorded queries " + std::to_string(trace.queries.size()));
  }
  return trace;
}

}  // namespace dfp
