// Sample-stream shard attribution (D tokens) and cross-node locality (X tokens): both survive
// the round trip byte-stably, and an unsharded sample carries neither token.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/pmu/sample.h"
#include "src/profiling/serialize.h"
#include "src/util/check.h"

namespace dfp {
namespace {

std::string Write(const std::vector<Sample>& samples) {
  SampleStream stream;
  stream.samples = samples;
  std::ostringstream out;
  WriteSamples(stream, out);
  return out.str();
}

TEST(ShardStream, RoundTripPreservesShardAndCrossNode) {
  std::vector<Sample> samples(3);
  samples[0].tsc = 10;
  samples[0].ip = 0x1000;
  samples[0].shard_id = 2;
  samples[1].tsc = 20;
  samples[1].ip = 0x1010;
  samples[1].addr = 0x9000;
  samples[1].worker_id = 1;
  samples[1].shard_id = 3;
  samples[1].cross_node = true;
  samples[1].mem_node = 1;  // Owning machine node, recorded through the X token.
  samples[2].tsc = 30;
  samples[2].ip = 0x1020;  // Shard-less coordinator sample in the same stream.

  const std::string text = Write(samples);
  EXPECT_NE(text.find(" D 2"), std::string::npos);
  EXPECT_NE(text.find(" X 1"), std::string::npos);

  std::istringstream in(text);
  const std::vector<Sample> read = ReadSamples(in).samples;
  ASSERT_EQ(read.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(read[i].tsc, samples[i].tsc);
    EXPECT_EQ(read[i].shard_id, samples[i].shard_id);
    EXPECT_EQ(read[i].cross_node, samples[i].cross_node);
    EXPECT_EQ(read[i].mem_node, samples[i].mem_node);
    EXPECT_EQ(read[i].worker_id, samples[i].worker_id);
  }

  // Byte-stable: writing what was read reproduces the stream exactly.
  EXPECT_EQ(Write(read), text);
}

TEST(ShardStream, ZeroShardIdNeverSerialized) {
  // shard_id 0 means "no shard" — it must not emit a D token (the reader rejects D 0).
  std::vector<Sample> samples(1);
  samples[0].tsc = 1;
  samples[0].ip = 0x3000;
  samples[0].shard_id = 0;
  EXPECT_EQ(Write(samples).find(" D "), std::string::npos);
}

}  // namespace
}  // namespace dfp
