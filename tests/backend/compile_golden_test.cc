// Compile-output golden: pins everything the backend hands to the rest of the system for a fixed
// set of plans — emitted machine code with its debug IR ids, literal relocation sites,
// CompileStats, the Tagging Dictionary's IR -> task entries and the Figure 6b annotated listing.
// Backend work that must keep the output byte-identical (data-structure and allocation changes in
// liveness, CSE, the verifier or the listing) shows up here as a changed constant.
//
// Each plan is compiled four ways: sequential and morsel-parallel, each with Register Tagging off
// (call-stack attribution) and on. Parallel compiles also parameterize literals, as the query
// service does, so the relocation table is exercised; sequential compiles fold them. The
// listing is rendered over synthetic samples (one to three per machine instruction), so the
// golden depends on compilation alone, not on simulated execution.
//
// Every compile gets a fresh database: its code map and runtime registrations (LIKE pattern ids
// are immediates in the emitted code) are per-database state that earlier compiles would shift.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/codegen.h"
#include "src/profiling/reports.h"
#include "src/sql/binder.h"
#include "src/tiering/literals.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace dfp {
namespace {

// FNV-1a over explicitly serialized fields (never raw struct bytes: padding is unspecified).
class Fnv64 {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xFFu)) * 0x100000001b3ull;
    }
  }
  void Add(const std::string& text) {
    Add(text.size());
    for (unsigned char c : text) {
      hash_ = (hash_ ^ c) * 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  TpchOptions options;
  options.scale = 0.002;
  GenerateTpch(*db, options);
  return db;
}

struct Mode {
  bool parallel;
  AttributionMode attribution;
};
constexpr Mode kModes[] = {{false, AttributionMode::kCallStack},
                           {false, AttributionMode::kRegisterTagging},
                           {true, AttributionMode::kCallStack},
                           {true, AttributionMode::kRegisterTagging}};

void HashCode(const std::vector<MInstr>& code, Fnv64& h) {
  h.Add(code.size());
  for (const MInstr& m : code) {
    h.Add(static_cast<uint64_t>(m.op));
    h.Add(static_cast<uint64_t>(m.type));
    h.Add(m.dst);
    h.Add(m.ra);
    h.Add(m.rb);
    h.Add(m.rc);
    h.Add(static_cast<uint64_t>(m.b_is_imm) | static_cast<uint64_t>(m.a_is_imm) << 1 |
          static_cast<uint64_t>(m.is_tag) << 2);
    h.Add(static_cast<uint64_t>(m.imm));
    h.Add(static_cast<uint64_t>(static_cast<int64_t>(m.disp)));
    h.Add(m.spill_slot);
    h.Add(m.target0);
    h.Add(m.target1);
    h.Add(m.callee);
    h.Add(m.ir_id);
    h.Add(m.args.size());
    for (const MArg& arg : m.args) {
      h.Add(static_cast<uint64_t>(arg.kind));
      h.Add(arg.value);
    }
  }
}

// Compiles one plan in one mode and hashes its whole compile output.
uint64_t HashCompile(Database& db, PhysicalOpPtr plan, const std::string& name,
                     const Mode& mode) {
  ProfilingConfig config;
  config.attribution = mode.attribution;
  ProfilingSession session(config);
  PlanLiterals literals = ExtractLiterals(*plan);
  CodegenOptions options;
  options.parallel = mode.parallel;
  options.literals = mode.parallel ? &literals : nullptr;
  CompiledQuery query = CompileQuery(db, std::move(plan), &session, name, options);

  Fnv64 h;
  std::vector<Sample> samples;
  for (const PipelineArtifact& artifact : query.pipelines) {
    const CodeSegment& segment = db.code_map().segment(artifact.segment);
    HashCode(segment.code, h);
    h.Add(artifact.literal_sites.size());
    for (const LiteralSite& site : artifact.literal_sites) {
      h.Add(site.slot);
      h.Add(site.code_offset);
      h.Add(static_cast<uint64_t>(site.field));
      h.Add(site.arg_index);
    }
    h.Add(artifact.stats.ir_instrs);
    h.Add(artifact.stats.machine_instrs);
    h.Add(artifact.stats.spilled_vregs);
    h.Add(artifact.stats.spill_slots);
    for (uint64_t offset = 0; offset < segment.code.size(); ++offset) {
      for (uint64_t k = 0; k <= offset % 3; ++k) {
        Sample sample;
        sample.tsc = samples.size();
        sample.ip = segment.base_ip + offset;
        samples.push_back(sample);
      }
    }
  }

  std::vector<std::pair<uint32_t, std::vector<TaskId>>> entries(
      session.dictionary().entries().begin(), session.dictionary().entries().end());
  std::sort(entries.begin(), entries.end());
  h.Add(entries.size());
  for (const auto& [ir_id, tasks] : entries) {
    h.Add(ir_id);
    h.Add(tasks.size());
    for (TaskId task : tasks) {
      h.Add(task);
    }
  }

  session.RecordExecution(std::move(samples), 0, PmuCounters());
  session.Resolve(db.code_map());
  for (uint32_t p = 0; p < query.pipelines.size(); ++p) {
    ListingOptions listing;
    listing.pipeline = p;
    h.Add(RenderAnnotatedListing(session, query, listing));
  }
  return h.value();
}

// Hashes all four modes of one plan; `build` is called once per mode on a fresh database.
uint64_t HashPlan(const std::function<PhysicalOpPtr(Database&)>& build, const std::string& name) {
  Fnv64 h;
  for (const Mode& mode : kModes) {
    std::unique_ptr<Database> db = MakeDb();
    h.Add(HashCompile(*db, build(*db), name, mode));
  }
  return h.value();
}

struct Golden {
  const char* name;
  uint64_t hash;
};

void ExpectGolden(const Golden& golden, uint64_t actual) {
  EXPECT_EQ(actual, golden.hash) << golden.name << ": 0x" << std::hex << actual;
}

// Recorded on the backend before the word-bitset liveness / string-free CSE and verifier /
// on-demand listing rewrite; each of those changes keeps these values.
constexpr Golden kTpchGolden[] = {
    {"q1", 0x4fe99ca7132d592dull},
    {"q3", 0xf0c03c964aba1543ull},
    {"q4", 0x41f6b331177f03d3ull},
    {"q5", 0x3d0f29e7873d548aull},
    {"q6", 0xc850f51bf055fddfull},
    {"q10", 0xba458449b75030f1ull},
    {"q12", 0xbed027d755877b8aull},
    {"q14", 0xeb51b8cc1c3c46cfull},
    {"q18", 0x01bcc98e6f4724aaull},
    {"q19", 0x5ecd3b84d67b5902ull},
    {"q7", 0x58c8e2063c0674e7ull},
    {"q8", 0x1c323905eeefef3aull},
    {"q16", 0x2b0232b14c2d3429ull},
    {"q22", 0xaadf51bf0e4b5457ull},
    {"qgj", 0xe85e655ebd58af55ull},
    {"fig9", 0xce1fc3abeb85f23bull},
};

TEST(CompileGolden, TpchSuite) {
  const std::vector<QuerySpec>& suite = TpchQuerySuite();
  ASSERT_EQ(suite.size(), std::size(kTpchGolden));
  for (size_t i = 0; i < suite.size(); ++i) {
    const QuerySpec& spec = suite[i];
    ASSERT_EQ(spec.name, kTpchGolden[i].name);
    ExpectGolden(kTpchGolden[i],
                 HashPlan([&](Database& db) { return BuildQueryPlan(db, spec); }, spec.name));
  }
}

TEST(CompileGolden, Fig9Plan) {
  // The plan-builder form of Figure 9 (the suite's "fig9" entry is its SQL twin).
  ExpectGolden({"fig9 plan", 0x16703da41fd050eeull},
               HashPlan([](Database& db) { return BuildFig9Plan(db); }, "fig9"));
}

// Five ad-hoc shapes in the style of the benchmark's cold ad-hoc SQL: join + group-by, a
// three-way join on a region name, CASE aggregation, order + limit, and projected arithmetic.
constexpr Golden kAdhocGolden[] = {
    {"select n_name, count(*) as suppliers, sum(s_acctbal) as balance from supplier, nation "
     "where s_nationkey = n_nationkey and s_acctbal > 1234.56 group by n_name order by n_name",
     0xc4dfbf5c196beff8ull},
    {"select r_name, count(*) as suppliers, max(s_acctbal) as top from supplier, nation, region "
     "where s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = 'ASIA' "
     "and s_suppkey <= 4321 group by r_name",
     0x496f255065cd9a86ull},
    {"select n_regionkey, sum(case when s_acctbal > 4000.00 then 1 else 0 end) as rich, "
     "count(*) as total from supplier, nation where s_nationkey = n_nationkey "
     "group by n_regionkey order by n_regionkey",
     0x27f61efa33c9b7b4ull},
    {"select s_suppkey, s_name, s_acctbal from supplier where s_acctbal between 1000.00 and "
     "3500.00 order by s_acctbal desc, s_suppkey limit 7",
     0x5c7b59f6549a96fdull},
    {"select n_name, r_name, n_nationkey * 37 as scaled from nation, region "
     "where n_regionkey = r_regionkey and r_name <> 'EUROPE' and n_nationkey >= 3 "
     "order by n_name limit 11",
     0x5bc9f0257baf7229ull},
};

TEST(CompileGolden, AdhocSql) {
  for (const Golden& golden : kAdhocGolden) {
    ExpectGolden(golden, HashPlan([&](Database& db) { return PlanSql(db, golden.name); }, "adhoc"));
  }
}

}  // namespace
}  // namespace dfp
