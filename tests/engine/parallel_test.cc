// Morsel-driven parallel execution: result equivalence with the sequential engine, scaling,
// determinism of the merged per-worker sample stream, worker-id round-tripping through the
// serialized sample format, and attribution parity with single-threaded profiling.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/engine/query_engine.h"
#include "src/profiling/serialize.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace dfp {
namespace {

Database* TpchDb() {
  static Database* db = [] {
    auto* instance = new Database();
    TpchOptions options;
    options.scale = 0.01;
    GenerateTpch(*instance, options);
    return instance;
  }();
  return db;
}

CodegenOptions ParallelOptions() {
  CodegenOptions options;
  options.parallel = true;
  return options;
}

TEST(ParallelTest, MatchesSequentialAcrossWorkerCounts) {
  Database& db = *TpchDb();
  QueryEngine engine(&db);
  for (const char* name : {"q1", "q3", "q18", "qgj"}) {
    const QuerySpec& spec = FindQuery(name);
    CompiledQuery sequential = engine.Compile(BuildQueryPlan(db, spec), nullptr, spec.name);
    Result expected = engine.Execute(sequential);
    CompiledQuery parallel =
        engine.Compile(BuildQueryPlan(db, spec), nullptr, spec.name + "_par", ParallelOptions());
    for (uint32_t workers : {1u, 2u, 4u}) {
      ParallelConfig config;
      config.workers = workers;
      Result result = engine.ExecuteParallel(parallel, config);
      std::string diff;
      EXPECT_TRUE(Result::Equivalent(result, expected, spec.ordered_result, &diff))
          << spec.name << " at " << workers << " workers: " << diff;
    }
  }
}

TEST(ParallelTest, ScanHeavyQuerySpeedsUpAtFourWorkers) {
  Database& db = *TpchDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q1");
  CompiledQuery sequential = engine.Compile(BuildQueryPlan(db, spec), nullptr, "q1_seq");
  engine.Execute(sequential);
  const uint64_t sequential_cycles = engine.last_cycles();

  CompiledQuery parallel =
      engine.Compile(BuildQueryPlan(db, spec), nullptr, "q1_par", ParallelOptions());
  ParallelConfig config;
  config.workers = 4;
  engine.ExecuteParallel(parallel, config);
  const uint64_t parallel_cycles = engine.last_cycles();

  // Acceptance bar for the morsel engine: at least 1.7x simulated-cycle speedup on a
  // scan-heavy query with 4 workers.
  EXPECT_GE(static_cast<double>(sequential_cycles),
            1.7 * static_cast<double>(parallel_cycles))
      << "sequential " << sequential_cycles << " vs 4-worker " << parallel_cycles;
}

TEST(ParallelTest, WorkerMetricsAccountForWallClock) {
  Database& db = *TpchDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q1");
  CompiledQuery parallel =
      engine.Compile(BuildQueryPlan(db, spec), nullptr, "q1_metrics", ParallelOptions());
  ParallelConfig config;
  config.workers = 4;
  engine.ExecuteParallel(parallel, config);

  const auto& metrics = engine.last_worker_metrics();
  ASSERT_EQ(metrics.size(), 4u);
  const uint64_t wall = engine.last_cycles();
  for (const WorkerMetrics& w : metrics) {
    // The final barrier aligns every worker to the wall clock, so busy + idle covers it.
    EXPECT_EQ(w.busy_cycles + w.idle_cycles, wall) << "worker " << w.worker_id;
    EXPECT_GT(w.busy_cycles, 0u) << "worker " << w.worker_id;
    EXPECT_GT(w.morsels, 0u) << "worker " << w.worker_id;
  }

  // Sequential execution leaves no per-worker metrics behind.
  CompiledQuery sequential = engine.Compile(BuildQueryPlan(db, spec), nullptr, "q1_seq2");
  engine.Execute(sequential);
  EXPECT_TRUE(engine.last_worker_metrics().empty());
}

TEST(ParallelTest, MergedSampleStreamIsDeterministic) {
  Database& db = *TpchDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q1");
  ProfilingConfig pconfig;
  pconfig.period = 311;
  ProfilingSession session(pconfig);
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(db, spec), &session, "q1_prof", ParallelOptions());

  ParallelConfig config;
  config.workers = 4;
  auto dump = [&] {
    engine.ExecuteParallel(query, config);
    SampleStream stream;
    stream.samples = session.samples();
    std::ostringstream out;
    WriteSamples(stream, out);
    return out.str();
  };
  const std::string first = dump();
  const std::string second = dump();
  // Same compiled code, same schedule, same per-worker PMU phases: byte-identical streams.
  EXPECT_EQ(first, second);

  // The stream is TSC-sorted and genuinely multi-worker.
  EXPECT_EQ(session.worker_count(), 4u);
  bool beyond_worker0 = false;
  uint64_t prev_tsc = 0;
  for (const Sample& sample : session.samples()) {
    beyond_worker0 |= sample.worker_id > 0;
    EXPECT_LE(prev_tsc, sample.tsc);
    prev_tsc = sample.tsc;
  }
  EXPECT_TRUE(beyond_worker0);
}

// Everything a parallel run reports that depends on core state: the serialized sample stream
// with its task boundaries, each worker's metrics, and the wall clock.
std::string DumpRun(const QueryEngine& engine, const ProfilingSession& session) {
  SampleStream stream;
  stream.samples = session.samples();
  stream.tasks = engine.last_task_boundaries();
  std::ostringstream out;
  WriteSamples(stream, out);
  for (const WorkerMetrics& w : engine.last_worker_metrics()) {
    out << "worker " << w.worker_id << ' ' << int{w.node} << ' ' << w.busy_cycles << ' '
        << w.idle_cycles << ' ' << w.morsels << ' ' << w.steals << ' ' << w.samples << ' '
        << w.sampling_overhead.total_cycles() << ' ' << w.sampling_overhead.flushes;
    for (uint64_t value : w.counters.values) {
      out << ' ' << value;
    }
    out << ' ' << w.cache_stats.accesses << ' ' << w.cache_stats.l1_misses << ' '
        << w.cache_stats.l2_misses << ' ' << w.cache_stats.l3_misses << ' '
        << w.cpu_stats.instructions << ' ' << w.cpu_stats.calls << ' '
        << w.cpu_stats.max_stack_depth << ' ' << w.numa_stats.local_accesses << ' '
        << w.numa_stats.remote_accesses << ' ' << w.numa_stats.remote_dram << '\n';
  }
  out << "wall " << engine.last_cycles() << '\n';
  return out.str();
}

// Runs on one Database reuse its pooled cores; every run must report exactly what a run on a
// fresh Database does, even after a sequential run and a wider pool have dirtied the cores.
TEST(ParallelTest, PooledCoresRunLikeFreshOnes) {
  TpchOptions options;
  options.scale = 0.002;
  const QuerySpec& spec = FindQuery("q3");
  ProfilingConfig pconfig;
  pconfig.period = 311;
  ParallelConfig config;
  config.workers = 4;

  Database fresh_db;
  GenerateTpch(fresh_db, options);
  QueryEngine fresh_engine(&fresh_db);
  ProfilingSession fresh_session(pconfig);
  CompiledQuery fresh_query = fresh_engine.Compile(BuildQueryPlan(fresh_db, spec),
                                                   &fresh_session, "q3_par", ParallelOptions());
  fresh_engine.ExecuteParallel(fresh_query, config);
  const std::string expected = DumpRun(fresh_engine, fresh_session);
  EXPECT_EQ(fresh_db.pooled_cores(), 4u);

  Database db;
  GenerateTpch(db, options);
  QueryEngine engine(&db);
  ProfilingSession session(pconfig);
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(db, spec), &session, "q3_par", ParallelOptions());
  CompiledQuery sequential = engine.Compile(BuildQueryPlan(db, FindQuery("q1")), nullptr, "q1");
  CompiledQuery wide = engine.Compile(BuildQueryPlan(db, FindQuery("q6")), nullptr, "q6_par",
                                      ParallelOptions());
  ParallelConfig wide_config;
  wide_config.workers = 6;
  wide_config.numa_nodes = 2;
  for (int run = 0; run < 3; ++run) {
    engine.ExecuteParallel(query, config);
    EXPECT_EQ(DumpRun(engine, session), expected) << "run " << run;
    engine.Execute(sequential);
    engine.ExecuteParallel(wide, wide_config);
  }
  // The pool grew to the widest run and no further.
  EXPECT_EQ(db.pooled_cores(), 6u);
}

TEST(ParallelTest, SerializationRoundTripsWorkerIds) {
  Database& db = *TpchDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q6");
  ProfilingConfig pconfig;
  pconfig.period = 311;
  ProfilingSession session(pconfig);
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(db, spec), &session, "q6_prof", ParallelOptions());
  ParallelConfig config;
  config.workers = 3;
  engine.ExecuteParallel(query, config);
  ASSERT_FALSE(session.samples().empty());

  SampleStream stream;
  stream.samples = session.samples();
  std::ostringstream out;
  WriteSamples(stream, out);
  std::istringstream in(out.str());
  std::vector<Sample> reread = ReadSamples(in).samples;
  ASSERT_EQ(reread.size(), session.samples().size());
  for (size_t i = 0; i < reread.size(); ++i) {
    EXPECT_EQ(reread[i].worker_id, session.samples()[i].worker_id) << "sample " << i;
    EXPECT_EQ(reread[i].tsc, session.samples()[i].tsc) << "sample " << i;
    EXPECT_EQ(reread[i].ip, session.samples()[i].ip) << "sample " << i;
  }

  // A reconstituted session recovers the pool size from the worker ids.
  ProfilingSession offline;
  std::ostringstream dict;
  WriteDictionary(session.dictionary(), dict);
  std::istringstream dict_in(dict.str());
  offline.LoadForPostProcessing(ReadDictionary(dict_in), std::move(reread),
                                session.execution_cycles());
  EXPECT_EQ(offline.worker_count(), 3u);
}

TEST(ParallelTest, AttributionMatchesSingleThreaded) {
  Database& db = *TpchDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q1");
  ProfilingConfig pconfig;
  pconfig.period = 311;

  ProfilingSession seq_session(pconfig);
  CompiledQuery sequential =
      engine.Compile(BuildQueryPlan(db, spec), &seq_session, "q1_seqprof");
  engine.Execute(sequential);
  seq_session.Resolve(db.code_map());
  AttributionStats seq_stats = seq_session.Stats();
  ASSERT_GT(seq_stats.total, 100u);

  ProfilingSession par_session(pconfig);
  CompiledQuery parallel = engine.Compile(BuildQueryPlan(db, spec), &par_session, "q1_parprof",
                                          ParallelOptions());
  ParallelConfig config;
  config.workers = 4;
  engine.ExecuteParallel(parallel, config);
  par_session.Resolve(db.code_map());
  AttributionStats par_stats = par_session.Stats();
  ASSERT_GT(par_stats.total, 100u);

  // Same query, same sampling period: the attributed fraction must agree within a percent —
  // the merged multi-worker stream loses nothing to parallelism.
  auto attributed = [](const AttributionStats& stats) {
    return static_cast<double>(stats.operator_samples + stats.kernel_samples) /
           static_cast<double>(stats.total);
  };
  EXPECT_NEAR(attributed(seq_stats), attributed(par_stats), 0.01);
  EXPECT_GT(attributed(par_stats), 0.9);
}

}  // namespace
}  // namespace dfp
