// Seeded request streams of the three benchmark workloads.
//
// The benchmark takes a seed; the program under test only ever sees the generated SQL and
// plans. Requests come in rounds of five. On olap_warm and adhoc_cold a round holds one
// request of each of five equally weighted classes, in an order the seed shuffles per round, so
// every class has exactly a fifth of the requests and the latency percentiles land mid-class
// (see stats.h). service_mix has one fixed request composition, so its rounds are five alike
// requests with fresh literal draws.
#ifndef DFPBENCH_WORKLOADS_H_
#define DFPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/plan/physical.h"
#include "src/util/random.h"

namespace dfpbench {

enum class WorkloadKind : uint8_t { kOlapWarm, kAdhocCold, kServiceMix };

// Accepts "olap_warm", "adhoc_cold" and "service_mix".
bool ParseWorkload(const std::string& name, WorkloadKind* kind);
const char* WorkloadName(WorkloadKind kind);

inline constexpr size_t kClasses = 5;

// One query a request submits.
struct QueryDraw {
  std::string family;  // Class or literal family, e.g. "q6", "fig9", "adhoc_case".
  std::string sql;     // Empty for the Figure 9 plan, which is built with the plan builder.
  int32_t fig9_cutoff = 0;  // o_orderdate bound of the Figure 9 plan (days since 1970).
  bool ordered = false;     // Row order is part of the answer.

  // Identifies the literal draw: queries with equal keys have equal results.
  std::string Key() const;
};

// Plans a draw: parse + bind for SQL, the plan builder for Figure 9.
dfp::PhysicalOpPtr PlanDraw(dfp::Database& db, const QueryDraw& draw);

struct Request {
  size_t cls = 0;  // Request class 0..4; every service_mix request is class 0.
  std::vector<QueryDraw> queries;
};

class RequestStream {
 public:
  RequestStream(WorkloadKind kind, uint64_t seed);

  // The next five requests.
  std::vector<Request> NextRound();

 private:
  WorkloadKind kind_;
  dfp::Random rng_;
  std::vector<QueryDraw> olap_classes_;
};

// olap_warm's five classes (q6, q3, q19, fig9, q1). The seed draws one literal set per run;
// every request of a class repeats it, so every timed request is an exact plan-cache hit.
std::vector<QueryDraw> OlapWarmClasses(uint64_t seed);

// adhoc_cold: one query of template 0..4 over region, nation and supplier, with numeric
// literals drawn per query from wide ranges and strings from a fixed vocabulary.
QueryDraw AdhocDraw(size_t template_id, dfp::Random& rng);

// service_mix: one submission from each of the q6, q14, q12 and q3 literal families, with
// date, discount and quantity literals drawn from small vocabularies.
std::vector<QueryDraw> ServiceMixDraws(dfp::Random& rng);

// Display name of a request class.
std::string ClassName(WorkloadKind kind, size_t cls);

}  // namespace dfpbench

#endif  // DFPBENCH_WORKLOADS_H_
