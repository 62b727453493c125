// Serialization round-trips and offline post-processing: a session reconstructed from the
// meta-data file and the sample dump must resolve identically to the live session.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/profiling/serialize.h"
#include "src/util/random.h"

namespace dfp {
namespace {

SampleStream OnlySamples(std::vector<Sample> samples) {
  SampleStream stream;
  stream.samples = std::move(samples);
  return stream;
}

std::string Write(const SampleStream& stream) {
  std::ostringstream out;
  WriteSamples(stream, out);
  return out.str();
}

SampleStream Read(const std::string& text) {
  std::istringstream in(text);
  return ReadSamples(in);
}

TEST(Serialize, DictionaryRoundTrip) {
  TaggingDictionary dictionary;
  TaskId scan = dictionary.AddTask(0, "scan");
  TaskId probe = dictionary.AddTask(2, "probe of join");
  dictionary.LinkInstr(10, scan);
  dictionary.LinkInstr(11, probe);
  dictionary.LinkInstr(12, scan);
  dictionary.OnAbsorb(12, 11);  // Multi-owner entry.

  std::stringstream stream;
  WriteDictionary(dictionary, stream);
  TaggingDictionary loaded = ReadDictionary(stream);
  EXPECT_EQ(loaded.tasks().size(), 2u);
  EXPECT_EQ(loaded.task(probe).name, "probe of join");
  EXPECT_EQ(loaded.OperatorOf(probe), 2u);
  ASSERT_NE(loaded.TasksOf(12), nullptr);
  EXPECT_EQ(loaded.TasksOf(12)->size(), 2u);
  EXPECT_EQ(loaded.TasksOf(99), nullptr);
}

TEST(Serialize, SamplesRoundTrip) {
  std::vector<Sample> samples;
  Sample plain;
  plain.tsc = 100;
  plain.ip = 0x1000001;
  samples.push_back(plain);
  Sample with_regs;
  with_regs.tsc = 200;
  with_regs.ip = 0x1000002;
  with_regs.addr = 0xBEEF;
  with_regs.has_registers = true;
  for (int i = 0; i < kNumMachineRegs; ++i) {
    with_regs.regs[static_cast<size_t>(i)] = static_cast<uint64_t>(i * 7);
  }
  samples.push_back(with_regs);
  Sample with_stack;
  with_stack.tsc = 300;
  with_stack.ip = 0x1000003;
  with_stack.callstack = {0x2000001, 0x2000002};
  samples.push_back(with_stack);

  std::vector<Sample> loaded = Read(Write(OnlySamples(samples))).samples;
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].tsc, 100u);
  EXPECT_FALSE(loaded[0].has_registers);
  EXPECT_TRUE(loaded[1].has_registers);
  EXPECT_EQ(loaded[1].regs[15], 105u);
  EXPECT_EQ(loaded[1].addr, 0xBEEFu);
  EXPECT_EQ(loaded[2].callstack.size(), 2u);
  EXPECT_EQ(loaded[2].callstack[1], 0x2000002u);
}

TEST(Serialize, WorkerIdsRoundTripBeyondSingleDigits) {
  // Pools larger than 9 workers produce multi-digit W tokens; sparse ids (a stream filtered to
  // a few workers) must survive as-is.
  std::vector<Sample> samples;
  for (uint32_t worker : {0u, 7u, 12u, 48u}) {
    Sample sample;
    sample.tsc = 100 + worker;
    sample.ip = 0x1000000 + worker;
    sample.worker_id = worker;
    samples.push_back(sample);
  }
  const std::string text = Write(OnlySamples(samples));
  EXPECT_EQ(text.rfind("# dfp samples v8\n", 0), 0u);
  EXPECT_NE(text.find("W 12"), std::string::npos);
  EXPECT_NE(text.find("W 48"), std::string::npos);
  std::vector<Sample> loaded = Read(text).samples;
  ASSERT_EQ(loaded.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(loaded[i].worker_id, samples[i].worker_id) << i;
  }
}

TEST(Serialize, MixedWorkerStreamKeepsPerSampleIds) {
  // A merged parallel stream interleaves worker-0 samples (no W token) with tagged ones;
  // the worker id must reset to 0 between lines rather than sticking.
  std::vector<Sample> samples;
  for (uint32_t worker : {0u, 3u, 0u, 1u, 0u}) {
    Sample sample;
    sample.tsc = 500 + samples.size();
    sample.ip = 0x1000010;
    sample.has_registers = true;
    sample.worker_id = worker;
    samples.push_back(sample);
  }
  std::vector<Sample> loaded = Read(Write(OnlySamples(samples))).samples;
  ASSERT_EQ(loaded.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(loaded[i].worker_id, samples[i].worker_id) << i;
    EXPECT_TRUE(loaded[i].has_registers) << i;
  }
}

TEST(Serialize, LocalityRoundTrip) {
  // Every per-sample combination of NUMA node/remote/stolen must survive the round trip
  // independently.
  std::vector<Sample> samples;
  {
    Sample local;  // Node info, local access.
    local.tsc = 10;
    local.ip = 0x1000001;
    local.mem_node = 0;
    samples.push_back(local);
  }
  {
    Sample remote;  // Remote access off worker 3, node 2.
    remote.tsc = 20;
    remote.ip = 0x1000002;
    remote.worker_id = 3;
    remote.mem_node = 2;
    remote.numa_remote = true;
    samples.push_back(remote);
  }
  {
    Sample stolen;  // Stolen morsel, remote access.
    stolen.tsc = 30;
    stolen.ip = 0x1000003;
    stolen.worker_id = 1;
    stolen.mem_node = 63;
    stolen.numa_remote = true;
    stolen.stolen = true;
    samples.push_back(stolen);
  }
  {
    Sample plain;  // No locality info at all: no N/T tokens on its line.
    plain.tsc = 40;
    plain.ip = 0x1000004;
    samples.push_back(plain);
  }
  const std::string text = Write(OnlySamples(samples));
  EXPECT_NE(text.find("N 2 1"), std::string::npos);
  EXPECT_NE(text.find(" T"), std::string::npos);
  std::vector<Sample> loaded = Read(text).samples;
  ASSERT_EQ(loaded.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(loaded[i].worker_id, samples[i].worker_id) << i;
    EXPECT_EQ(loaded[i].mem_node, samples[i].mem_node) << i;
    EXPECT_EQ(loaded[i].numa_remote, samples[i].numa_remote) << i;
    EXPECT_EQ(loaded[i].stolen, samples[i].stolen) << i;
  }
}

TEST(Serialize, RejectsMalformedLocalityTokens) {
  // Node ids are one byte and the remote flag is 0/1; anything else is malformed, not clamped.
  EXPECT_THROW(Read("# dfp samples v8\nsample 100 16777217 0 N 300 0\n"), Error);
  EXPECT_THROW(Read("# dfp samples v8\nsample 100 16777217 0 N 1 2\n"), Error);
  EXPECT_THROW(Read("# dfp samples v8\nsample 100 16777217 0 N 1\n"), Error);
}

TEST(Serialize, RejectsMalformedInput) {
  {
    std::stringstream stream("not a header\n");
    EXPECT_THROW(ReadDictionary(stream), Error);
  }
  {
    std::stringstream stream("# dfp tagging dictionary v1\nbogus 1 2\n");
    EXPECT_THROW(ReadDictionary(stream), Error);
  }
  EXPECT_THROW(Read("# dfp samples v8\nsample nope\n"), Error);
  // Tier payloads are one byte: wider values are rejected, not truncated.
  EXPECT_THROW(Read("# dfp samples v8\nsample 100 16777217 0 G 300\n"), Error);
  // A call-stack depth beyond the listed return addresses is malformed.
  EXPECT_THROW(Read("# dfp samples v8\nsample 100 16777217 0 S 99999999999 1 2\n"), Error);
  // Task payloads: unknown kind, out-of-range stolen flag, end before start.
  EXPECT_THROW(Read("# dfp samples v8\ntask 0 10 0 9 0 4294967295 0 0 0 0 0 0 0 0 0\n"), Error);
  EXPECT_THROW(Read("# dfp samples v8\ntask 0 10 0 1 0 0 0 64 2 0 0 0 0 0 0\n"), Error);
  EXPECT_THROW(Read("# dfp samples v8\ntask 10 5 0 1 0 0 0 64 0 0 0 0 0 0 0\n"), Error);
  // Sideband lines need a tsc.
  EXPECT_THROW(Read("# dfp samples v8\nsched later repair 0 applied\n"), Error);
}

TEST(Serialize, TierAndEventsRoundTrip) {
  // Samples carrying a compilation tier and a stream carrying sideband events must survive the
  // round trip, with events re-interleaved by tsc.
  std::vector<Sample> samples;
  {
    Sample baseline;
    baseline.tsc = 10;
    baseline.ip = 0x1000001;
    baseline.tier = 1;
    samples.push_back(baseline);
  }
  {
    Sample optimized;  // Tier 0 emits no G token.
    optimized.tsc = 30;
    optimized.ip = 0x1000002;
    samples.push_back(optimized);
  }
  std::vector<SampleStreamEvent> events = {{5, "tier 0000000000000001 baseline optimized decided"},
                                           {20, "tier 0000000000000001 baseline optimized swapped"},
                                           {99, "trailing event"}};

  SampleStream stream;
  stream.samples = samples;
  stream.events = events;
  const std::string text = Write(stream);
  // Events land before the first sample whose tsc passes them; the trailing one after all.
  EXPECT_LT(text.find("event 5 "), text.find("sample 10"));
  EXPECT_GT(text.find("event 20 "), text.find("sample 10"));
  EXPECT_LT(text.find("event 20 "), text.find("sample 30"));
  EXPECT_GT(text.find("event 99 "), text.find("sample 30"));

  const SampleStream reread = Read(text);
  const std::vector<Sample>& loaded = reread.samples;
  const std::vector<SampleStreamEvent>& loaded_events = reread.events;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].tier, 1);
  EXPECT_EQ(loaded[1].tier, 0);
  ASSERT_EQ(loaded_events.size(), 3u);
  EXPECT_EQ(loaded_events[0].tsc, 5u);
  EXPECT_EQ(loaded_events[1].text, "tier 0000000000000001 baseline optimized swapped");
  EXPECT_EQ(loaded_events[2].tsc, 99u);
}

TEST(Serialize, TaskBoundariesRoundTrip) {
  // Task-boundary records must survive the round trip field for field, written as a block
  // right after the header in the order given.
  std::vector<Sample> samples;
  Sample plain;
  plain.tsc = 500;
  plain.ip = 0x1000001;
  samples.push_back(plain);

  std::vector<TaskBoundary> tasks;
  {
    TaskBoundary host;
    host.start_tsc = 0;
    host.end_tsc = 120;
    host.worker_id = 0;
    host.kind = TaskKind::kHostStep;
    host.step = 0;
    tasks.push_back(host);
  }
  {
    TaskBoundary morsel;
    morsel.start_tsc = 120;
    morsel.end_tsc = 900;
    morsel.worker_id = 3;
    morsel.kind = TaskKind::kMorsel;
    morsel.step = 1;
    morsel.pipeline = 2;
    morsel.morsel_begin = 4096;
    morsel.morsel_end = 8192;
    morsel.stolen = true;
    morsel.instructions = 7000;
    morsel.loads = 1500;
    morsel.l1_misses = 90;
    morsel.l2_misses = 40;
    morsel.l3_misses = 12;
    morsel.remote_dram = 5;
    tasks.push_back(morsel);
  }

  SampleStream stream;
  stream.samples = samples;
  stream.tasks = tasks;
  const std::string text = Write(stream);
  EXPECT_LT(text.find("task 0 120 "), text.find("sample 500"));

  const SampleStream reread = Read(text);
  const std::vector<TaskBoundary>& loaded = reread.tasks;
  ASSERT_EQ(reread.samples.size(), 1u);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].kind, TaskKind::kHostStep);
  EXPECT_EQ(loaded[0].pipeline, kNoPipeline);
  EXPECT_EQ(loaded[1].start_tsc, 120u);
  EXPECT_EQ(loaded[1].end_tsc, 900u);
  EXPECT_EQ(loaded[1].worker_id, 3u);
  EXPECT_EQ(loaded[1].kind, TaskKind::kMorsel);
  EXPECT_EQ(loaded[1].step, 1u);
  EXPECT_EQ(loaded[1].pipeline, 2u);
  EXPECT_EQ(loaded[1].morsel_begin, 4096u);
  EXPECT_EQ(loaded[1].morsel_end, 8192u);
  EXPECT_TRUE(loaded[1].stolen);
  EXPECT_EQ(loaded[1].instructions, 7000u);
  EXPECT_EQ(loaded[1].loads, 1500u);
  EXPECT_EQ(loaded[1].l1_misses, 90u);
  EXPECT_EQ(loaded[1].l2_misses, 40u);
  EXPECT_EQ(loaded[1].l3_misses, 12u);
  EXPECT_EQ(loaded[1].remote_dram, 5u);
}

TEST(Serialize, ReoptLinesRoundTripIsV8) {
  // Re-optimization sideband lines interleave by tsc after any sched lines at the same
  // timestamp (fixed order keeps double-run streams byte-identical).
  std::vector<Sample> samples;
  Sample plain;
  plain.tsc = 500;
  plain.ip = 0x1000001;
  samples.push_back(plain);

  std::vector<SampleStreamEvent> reopt;
  SampleStreamEvent decided;
  decided.tsc = 100;
  decided.text = "decided fp=12ab divergence=4100";
  reopt.push_back(decided);
  SampleStreamEvent kept;
  kept.tsc = 400;
  kept.text = "kept fp=12ab";
  reopt.push_back(kept);

  SampleStream stream;
  stream.samples = samples;
  stream.sched = {{100, "repair 0 applied"}};
  stream.reopt = reopt;
  const std::string text = Write(stream);
  EXPECT_EQ(text.rfind("# dfp samples v8\n", 0), 0u);
  EXPECT_LT(text.find("sched 100 repair"), text.find("reopt 100 decided"));
  EXPECT_LT(text.find("reopt 100 decided fp=12ab divergence=4100"), text.find("sample 500"));

  const SampleStream reread = Read(text);
  const std::vector<SampleStreamEvent>& loaded = reread.reopt;
  ASSERT_EQ(reread.samples.size(), 1u);
  ASSERT_EQ(reread.sched.size(), 1u);
  EXPECT_EQ(reread.sched[0].text, "repair 0 applied");
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].tsc, 100u);
  EXPECT_EQ(loaded[0].text, "decided fp=12ab divergence=4100");
  EXPECT_EQ(loaded[1].tsc, 400u);
  EXPECT_EQ(loaded[1].text, "kept fp=12ab");

  // Byte-stable: writing what was read reproduces the stream exactly.
  EXPECT_EQ(Write(reread), text);
}

TEST(Serialize, EveryStreamIsWrittenAtTheCurrentVersion) {
  // The header never depends on what the stream carries: an empty stream and a single-worker
  // stream with no sideband are written as v8 too, and their sample lines carry no optional
  // token.
  EXPECT_EQ(Write(SampleStream()), "# dfp samples v8\n");
  Sample plain;
  plain.tsc = 100;
  plain.ip = 0x1000001;
  const std::string text = Write(OnlySamples({plain}));
  EXPECT_EQ(text, "# dfp samples v8\nsample 100 16777217 0\n");
  const SampleStream reread = Read(text);
  ASSERT_EQ(reread.samples.size(), 1u);
  EXPECT_EQ(reread.samples[0].worker_id, 0u);
  EXPECT_EQ(reread.samples[0].shard_id, 0u);
  EXPECT_TRUE(reread.tasks.empty());
}

TEST(Serialize, ReaderReturnsEverySection) {
  // One reader returns every section a stream carries, each in its written order, and writing
  // what was read reproduces the stream byte for byte.
  SampleStream stream;
  for (uint64_t tsc : {100u, 300u, 500u}) {
    Sample sample;
    sample.tsc = tsc;
    sample.ip = 0x1000000 + tsc;
    sample.worker_id = static_cast<uint32_t>(tsc / 100);
    sample.shard_id = 2;
    stream.samples.push_back(sample);
  }
  TaskBoundary task;
  task.start_tsc = 50;
  task.end_tsc = 450;
  task.worker_id = 1;
  task.kind = TaskKind::kMorsel;
  stream.tasks.push_back(task);
  stream.events = {{200, "tier 0000000000000001 baseline optimized decided"}};
  stream.sched = {{250, "repair 0 applied"}, {600, "reject 7 deadline"}};
  stream.reopt = {{300, "decided fp=12ab divergence=4100"}};
  const std::string text = Write(stream);

  const SampleStream reread = Read(text);
  ASSERT_EQ(reread.samples.size(), 3u);
  ASSERT_EQ(reread.tasks.size(), 1u);
  ASSERT_EQ(reread.events.size(), 1u);
  ASSERT_EQ(reread.sched.size(), 2u);
  ASSERT_EQ(reread.reopt.size(), 1u);
  EXPECT_EQ(reread.samples[2].worker_id, 5u);
  EXPECT_EQ(reread.samples[2].shard_id, 2u);
  EXPECT_EQ(reread.tasks[0].end_tsc, 450u);
  EXPECT_EQ(reread.events[0].text, stream.events[0].text);
  EXPECT_EQ(reread.sched[1].tsc, 600u);
  EXPECT_EQ(reread.sched[1].text, "reject 7 deadline");
  EXPECT_EQ(reread.reopt[0].tsc, 300u);
  EXPECT_EQ(Write(reread), text);
}

TEST(Serialize, NegativeUnsignedFieldsAreMalformed) {
  // Every one of these fields is unsigned; a '-' must not wrap to a huge id or timestamp.
  const std::vector<std::string> bad = {
      "sample -100 16777217 0\n",
      "sample 100 16777217 0 W -1\n",
      "sample 100 16777217 0 D -1\n",
      "sample 100 16777217 0 N -1 0\n",
      "sample 100 16777217 0 S -1 5\n",
      "task 0 10 -1 1 0 0 0 64 0 0 0 0 0 0 0\n",
      "event -5 tier change\n",
      "sched -5 repair 0 applied\n",
      "reopt -5 kept fp=12ab\n",
  };
  for (const std::string& body : bad) {
    EXPECT_THROW(Read("# dfp samples v8\n" + body), Error) << body;
  }
  std::istringstream dictionary("# dfp tagging dictionary v1\ntask 0 -1 scan\n");
  EXPECT_THROW(ReadDictionary(dictionary), Error);
}

TEST(Serialize, OfflineResolutionMatchesLiveSession) {
  Database db;
  {
    Random rng(3);
    TableBuilder products = db.CreateTableBuilder(
        {"products", {{"id", ColumnType::kInt64}, {"category", ColumnType::kString}}});
    for (int i = 0; i < 50; ++i) {
      products.BeginRow();
      products.SetI64(0, i);
      products.SetString(1, i % 2 == 0 ? "Chip" : "Other");
    }
    db.AddTable(products.Finish());
    TableBuilder sales = db.CreateTableBuilder(
        {"sales", {{"id", ColumnType::kInt64}, {"price", ColumnType::kDecimal}}});
    for (int i = 0; i < 5000; ++i) {
      sales.BeginRow();
      sales.SetI64(0, rng.Uniform(0, 49));
      sales.SetDecimal(1, rng.Uniform(1, 1000));
    }
    db.AddTable(sales.Finish());
  }
  QueryEngine engine(&db);
  ProfilingConfig config;
  config.period = 200;
  ProfilingSession live(config);
  PlanBuilder products = PlanBuilder::Scan(db.table("products"));
  PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
  sales.JoinWith(std::move(products), {"id"}, {"id"}, {"category"});
  sales.GroupByKeys({"category"},
                    NamedExprs("total", MakeAggregate(AggOp::kSum, sales.Col("price"))));
  CompiledQuery query = engine.Compile(sales.Build(), &live, "offline");
  engine.Execute(query);

  // Serialize the meta-data and samples, then resolve in a fresh session.
  std::stringstream dict_file;
  WriteDictionary(live.dictionary(), dict_file);
  const std::string sample_file = Write(OnlySamples(live.samples()));

  ProfilingSession offline(config);
  offline.LoadForPostProcessing(ReadDictionary(dict_file), Read(sample_file).samples,
                                live.execution_cycles());

  live.Resolve(db.code_map());
  offline.Resolve(db.code_map());
  ASSERT_EQ(live.resolved().size(), offline.resolved().size());
  for (size_t i = 0; i < live.resolved().size(); ++i) {
    EXPECT_EQ(live.resolved()[i].op, offline.resolved()[i].op) << i;
    EXPECT_EQ(live.resolved()[i].task, offline.resolved()[i].task) << i;
    EXPECT_EQ(static_cast<int>(live.resolved()[i].category),
              static_cast<int>(offline.resolved()[i].category))
        << i;
  }
}

}  // namespace
}  // namespace dfp
