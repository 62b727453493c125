#include "dfpbench/workloads.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/plan/builder.h"
#include "src/sql/binder.h"
#include "src/util/date.h"
#include "src/util/str.h"

namespace dfpbench {
namespace {

using dfp::DateFromYmd;
using dfp::DateToString;
using dfp::StrFormat;

constexpr std::array<const char*, 5> kRegions = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                                 "MIDDLE EAST"};
constexpr std::array<const char*, 5> kSegments = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                                  "HOUSEHOLD", "MACHINERY"};
constexpr std::array<const char*, 5> kAdhocTemplates = {"adhoc_join_group", "adhoc_region",
                                                        "adhoc_case", "adhoc_order_limit",
                                                        "adhoc_nation_limit"};

// Salts the literal draws of olap_warm so they are independent of its round order.
constexpr uint64_t kOlapLiteralSalt = 0x6f6c61702d6c6974ull;

// A scale-2 decimal literal from its payload in hundredths ("1234.05").
std::string Decimal(int64_t hundredths) {
  return StrFormat("%lld.%02lld", static_cast<long long>(hundredths / 100),
                   static_cast<long long>(hundredths % 100));
}

std::string Date(int32_t days) { return "date '" + DateToString(days) + "'"; }

QueryDraw Q6(int year, int64_t discount_pct, int quantity) {
  return {"q6",
          StrFormat("select sum(l_extendedprice * l_discount) as revenue from lineitem "
                    "where l_shipdate >= %s and l_shipdate < %s "
                    "and l_discount between %s and %s and l_quantity < %d",
                    Date(DateFromYmd(year, 1, 1)).c_str(),
                    Date(DateFromYmd(year + 1, 1, 1)).c_str(), Decimal(discount_pct - 1).c_str(),
                    Decimal(discount_pct + 1).c_str(), quantity),
          0, false};
}

QueryDraw Q3(const char* segment, int32_t date) {
  return {"q3",
          StrFormat("select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue, "
                    "o_orderdate, o_shippriority from customer, orders, lineitem "
                    "where c_mktsegment = '%s' and c_custkey = o_custkey "
                    "and l_orderkey = o_orderkey and o_orderdate < %s and l_shipdate > %s "
                    "group by l_orderkey, o_orderdate, o_shippriority "
                    "order by revenue desc, o_orderdate limit 10",
                    segment, Date(date).c_str(), Date(date).c_str()),
          0, true};
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (WorkloadKind candidate :
       {WorkloadKind::kOlapWarm, WorkloadKind::kAdhocCold, WorkloadKind::kServiceMix}) {
    if (name == WorkloadName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kOlapWarm:
      return "olap_warm";
    case WorkloadKind::kAdhocCold:
      return "adhoc_cold";
    case WorkloadKind::kServiceMix:
      return "service_mix";
  }
  return "?";
}

std::string QueryDraw::Key() const {
  return sql.empty() ? family + "@" + std::to_string(fig9_cutoff) : sql;
}

dfp::PhysicalOpPtr PlanDraw(dfp::Database& db, const QueryDraw& draw) {
  if (!draw.sql.empty()) {
    return dfp::PlanSql(db, draw.sql);
  }
  // The paper's Figure 9 plan (src/tpch/queries.cc, BuildFig9Plan) with a drawn cutoff.
  dfp::PlanBuilder orders = dfp::PlanBuilder::Scan(db.table("orders"));
  orders.FilterBy(dfp::MakeBinary(dfp::BinOp::kLt, orders.Col("o_orderdate"),
                                  dfp::MakeLiteral(dfp::ColumnType::kDate, draw.fig9_cutoff)),
                  "Filter o_orderdate");
  dfp::PlanBuilder lineitem = dfp::PlanBuilder::Scan(db.table("lineitem"));
  lineitem.JoinWith(std::move(orders), {"l_orderkey"}, {"o_orderkey"}, {},
                    dfp::JoinType::kInner, "HashJoin orders");
  lineitem.GroupByKeys(
      {"l_orderkey"},
      dfp::NamedExprs("avg_price",
                      dfp::MakeAggregate(dfp::AggOp::kAvg, lineitem.Col("l_extendedprice"))),
      "GroupBy l_orderkey");
  return lineitem.Build();
}

std::vector<QueryDraw> OlapWarmClasses(uint64_t seed) {
  dfp::Random rng(seed ^ kOlapLiteralSalt);
  std::vector<QueryDraw> classes;
  // Narrow ranges: the draw changes the literals, not the amount of work, so seeds differ in
  // simulated cycles without spreading the host-time figures.
  // Every draw is its own statement: the order of argument evaluation is unspecified, and the
  // draws must not depend on the compiler.
  const int q6_year = static_cast<int>(rng.Uniform(1993, 1997));
  const int64_t q6_discount = rng.Uniform(5, 7);
  const int q6_quantity = static_cast<int>(rng.Uniform(23, 25));
  classes.push_back(Q6(q6_year, q6_discount, q6_quantity));
  const char* q3_segment = kSegments[static_cast<size_t>(rng.Uniform(0, 4))];
  const int q3_day = static_cast<int>(rng.Uniform(1, 28));
  classes.push_back(Q3(q3_segment, DateFromYmd(1995, 3, q3_day)));
  const int64_t brand = rng.Uniform(1, 3);
  const int64_t quantity = rng.Uniform(1, 5);
  classes.push_back(
      {"q19",
       StrFormat("select sum(l_extendedprice * (1 - l_discount)) as revenue "
                 "from lineitem, part where p_partkey = l_partkey "
                 "and ((p_brand = 'Brand#%lld2' and l_quantity between %lld and %lld) "
                 "or (p_brand = 'Brand#%lld3' and l_quantity between %lld and %lld) "
                 "or (p_brand = 'Brand#%lld4' and l_quantity between %lld and %lld))",
                 static_cast<long long>(brand), static_cast<long long>(quantity),
                 static_cast<long long>(quantity + 10), static_cast<long long>(brand + 1),
                 static_cast<long long>(quantity + 9), static_cast<long long>(quantity + 19),
                 static_cast<long long>(brand + 2), static_cast<long long>(quantity + 19),
                 static_cast<long long>(quantity + 29)),
       0, false});
  classes.push_back(
      {"fig9", "", DateFromYmd(1995, 4, 1) + static_cast<int32_t>(rng.Uniform(-30, 30)), false});
  classes.push_back(
      {"q1",
       StrFormat("select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, "
                 "sum(l_extendedprice) as sum_base_price, "
                 "sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, "
                 "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, "
                 "avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, "
                 "avg(l_discount) as avg_disc, count(*) as count_order from lineitem "
                 "where l_shipdate <= %s group by l_returnflag, l_linestatus "
                 "order by l_returnflag, l_linestatus",
                 Date(DateFromYmd(1998, 12, 1) - static_cast<int32_t>(rng.Uniform(60, 120)))
                     .c_str()),
       0, true});
  return classes;
}

QueryDraw AdhocDraw(size_t template_id, dfp::Random& rng) {
  const char* family = kAdhocTemplates[template_id];
  switch (template_id) {
    case 0:  // Join + group-by.
      return {family,
              StrFormat("select n_name, count(*) as suppliers, sum(s_acctbal) as balance "
                        "from supplier, nation where s_nationkey = n_nationkey "
                        "and s_acctbal > %s group by n_name order by n_name",
                        Decimal(rng.Uniform(0, 900000)).c_str()),
              0, true};
    case 1: {  // Three-way join filtered on a region name.
      const char* region = kRegions[static_cast<size_t>(rng.Uniform(0, 4))];
      const int64_t max_key = rng.Uniform(10, 1000000);
      return {family,
              StrFormat("select r_name, count(*) as suppliers, max(s_acctbal) as top "
                        "from supplier, nation, region where s_nationkey = n_nationkey "
                        "and n_regionkey = r_regionkey and r_name = '%s' "
                        "and s_suppkey <= %lld group by r_name",
                        region, static_cast<long long>(max_key)),
              0, false};
    }
    case 2:  // CASE aggregation.
      return {family,
              StrFormat("select n_regionkey, "
                        "sum(case when s_acctbal > %s then 1 else 0 end) as rich, "
                        "count(*) as total from supplier, nation "
                        "where s_nationkey = n_nationkey group by n_regionkey "
                        "order by n_regionkey",
                        Decimal(rng.Uniform(0, 900000)).c_str()),
              0, true};
    case 3: {  // Order + limit.
      const int64_t low = rng.Uniform(0, 500000);
      const int64_t high = low + rng.Uniform(50000, 400000);
      const int64_t limit = rng.Uniform(3, 20);
      return {family,
              StrFormat("select s_suppkey, s_name, s_acctbal from supplier "
                        "where s_acctbal between %s and %s "
                        "order by s_acctbal desc, s_suppkey limit %lld",
                        Decimal(low).c_str(), Decimal(high).c_str(),
                        static_cast<long long>(limit)),
              0, true};
    }
    default: {  // Nation x region, projected arithmetic, order + limit.
      const int64_t factor = rng.Uniform(2, 1000000);
      const char* region = kRegions[static_cast<size_t>(rng.Uniform(0, 4))];
      const int64_t min_key = rng.Uniform(0, 12);
      const int64_t limit = rng.Uniform(5, 25);
      return {family,
              StrFormat("select n_name, r_name, n_nationkey * %lld as scaled "
                        "from nation, region where n_regionkey = r_regionkey "
                        "and r_name <> '%s' and n_nationkey >= %lld "
                        "order by n_name limit %lld",
                        static_cast<long long>(factor), region,
                        static_cast<long long>(min_key), static_cast<long long>(limit)),
              0, true};
    }
  }
}

std::vector<QueryDraw> ServiceMixDraws(dfp::Random& rng) {
  std::vector<QueryDraw> draws;
  const int q6_year = static_cast<int>(rng.Uniform(1994, 1995));
  const int64_t q6_discount = rng.Uniform(5, 6);
  const int q6_quantity = static_cast<int>(rng.Uniform(24, 25));
  draws.push_back(Q6(q6_year, q6_discount, q6_quantity));
  const int month = static_cast<int>(rng.Uniform(1, 8));
  draws.push_back(
      {"q14",
       StrFormat("select 100.00 * sum(case when p_type like 'PROMO%%' "
                 "then l_extendedprice * (1 - l_discount) else 0.00 end) "
                 "/ sum(l_extendedprice * (1 - l_discount)) as promo_revenue "
                 "from lineitem, part where l_partkey = p_partkey "
                 "and l_shipdate >= %s and l_shipdate < %s",
                 Date(DateFromYmd(1995, month, 1)).c_str(),
                 Date(DateFromYmd(1995, month + 1, 1)).c_str()),
       0, false});
  const int year = static_cast<int>(rng.Uniform(1993, 1996));
  draws.push_back(
      {"q12",
       StrFormat("select l_shipmode, "
                 "sum(case when o_orderpriority = '1-URGENT' or o_orderpriority = '2-HIGH' "
                 "then 1 else 0 end) as high_line_count, "
                 "sum(case when o_orderpriority <> '1-URGENT' and o_orderpriority <> '2-HIGH' "
                 "then 1 else 0 end) as low_line_count "
                 "from orders, lineitem where o_orderkey = l_orderkey "
                 "and l_shipmode in ('MAIL', 'SHIP') "
                 "and l_commitdate < l_receiptdate and l_shipdate < l_commitdate "
                 "and l_receiptdate >= %s and l_receiptdate < %s "
                 "group by l_shipmode order by l_shipmode",
                 Date(DateFromYmd(year, 1, 1)).c_str(),
                 Date(DateFromYmd(year + 1, 1, 1)).c_str()),
       0, true});
  const int q3_day = 1 + 4 * static_cast<int>(rng.Uniform(0, 6));
  draws.push_back(Q3("BUILDING", DateFromYmd(1995, 3, q3_day)));
  return draws;
}

RequestStream::RequestStream(WorkloadKind kind, uint64_t seed) : kind_(kind), rng_(seed) {
  if (kind == WorkloadKind::kOlapWarm) {
    olap_classes_ = OlapWarmClasses(seed);
  }
}

std::vector<Request> RequestStream::NextRound() {
  std::vector<Request> round(kClasses);
  for (size_t cls = 0; cls < kClasses; ++cls) {
    Request& request = round[cls];
    switch (kind_) {
      case WorkloadKind::kOlapWarm:
        request.cls = cls;
        request.queries.push_back(olap_classes_[cls]);
        break;
      case WorkloadKind::kAdhocCold:
        request.cls = cls;
        request.queries.push_back(AdhocDraw(cls, rng_));
        break;
      case WorkloadKind::kServiceMix:
        request.queries = ServiceMixDraws(rng_);
        break;
    }
  }
  // Fisher-Yates with the stream's own generator: the order is part of the seeded input.
  for (size_t i = kClasses - 1; i > 0; --i) {
    std::swap(round[i], round[static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(i)))]);
  }
  return round;
}

std::string ClassName(WorkloadKind kind, size_t cls) {
  switch (kind) {
    case WorkloadKind::kOlapWarm:
      return std::array<const char*, 5>{"q6", "q3", "q19", "fig9", "q1"}[cls];
    case WorkloadKind::kAdhocCold:
      return kAdhocTemplates[cls];
    case WorkloadKind::kServiceMix:
      return "mix";
  }
  return "?";
}

}  // namespace dfpbench
