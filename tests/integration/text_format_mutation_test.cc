// Every dfp text format against foreign and corrupt input. Each format has one current version:
// any other header is rejected with a dfp::Error that names the version found. And seeded
// mutations of a real artifact of each format (sample stream, service state, trace, plan codec
// text, tagging dictionary) — byte flips, truncations, dropped, duplicated or swapped lines,
// swapped or replaced tokens — either parse or throw dfp::Error: nothing else escapes a reader,
// and no reader aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/continuous/regression.h"
#include "src/continuous/window.h"
#include "src/critpath/slack.h"
#include "src/profiling/serialize.h"
#include "src/reopt/cardstore.h"
#include "src/reopt/controller.h"
#include "src/replay/plan_codec.h"
#include "src/replay/recorder.h"
#include "src/replay/trace.h"
#include "src/service/query_service.h"
#include "src/service/service_profile.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "src/util/check.h"

namespace dfp {
namespace {

// Deterministic pseudo-random stream (no std::random: seeds must reproduce across platforms).
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
};

void ReadSampleText(const std::string& text) {
  std::istringstream in(text);
  ReadSamples(in);
}

void ReadStateText(const std::string& text) {
  std::istringstream in(text);
  WindowedProfile windows;
  BaselineStore baselines;
  uint64_t clock = 0;
  SlackStore slack;
  CardStore cards;
  ReoptLog reopts;
  ReadServiceProfile(in, &windows, &baselines, &clock, &slack, &cards, &reopts);
}

void ReadTraceText(const std::string& text) {
  std::istringstream in(text);
  ReadTrace(in);
}

void ReadDictionaryText(const std::string& text) {
  std::istringstream in(text);
  ReadDictionary(in);
}

ServiceConfig ArtifactConfig() {
  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.session_state_bytes = 512ull * 1024;
  config.profiling.period = 311;
  config.profiling.capture_address = true;  // N tokens.
  config.tiering.enabled = true;
  config.reopt.enabled = true;
  config.sched.slack_scheduling = true;
  config.continuous.window.width_cycles = 1'000'000;
  return config;
}

// One real artifact of each format, produced by a short served workload with tiering,
// re-optimization and slack scheduling on, so every optional section and token kind appears.
struct Artifacts {
  std::unique_ptr<Database> db;
  std::string samples;
  std::string state;
  std::string trace;
  std::string plan;
  std::string dictionary;
};

std::unique_ptr<Artifacts> MakeArtifacts() {
  auto artifacts = std::make_unique<Artifacts>();
  const ServiceConfig config = ArtifactConfig();
  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  artifacts->db = std::make_unique<Database>(db_config);
  TpchOptions options;
  options.scale = 0.01;
  GenerateTpch(*artifacts->db, options);
  Database& db = *artifacts->db;

  QueryService service(db, config);
  TraceRecorder recorder;
  service.AttachRecorder(recorder);
  for (const char* name : {"q6", "q1", "q6", "q6"}) {
    service.Submit(BuildQueryPlan(db, FindQuery(name)), name);
    service.Drain();
  }
  service.SnapshotBaseline();
  // The first execution ran at the baseline tier, so its samples carry G tokens.
  const QueryTicket& ticket = service.ticket(1);

  // The first samples and tasks of that execution keep each mutation trial cheap; the sideband
  // sections are the service's full logs.
  auto head = [](const auto& all, size_t n) {
    return std::vector(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(
                                                      std::min(all.size(), n)));
  };
  SampleStream stream;
  stream.samples = head(ticket.session->samples(), 150);
  stream.tasks = head(ticket.task_boundaries, 50);
  stream.events = service.tier_events();
  stream.sched = service.sched_events();
  stream.reopt = service.reopt_events();
  std::ostringstream samples_out;
  WriteSamples(stream, samples_out);
  artifacts->samples = samples_out.str();

  std::ostringstream state_out;
  WriteServiceState(service.fleet_profile(), service.windows(), service.baseline(),
                    service.ServiceNowCycles(), state_out, &service.slack(), &service.cards(),
                    &service.reopts());
  artifacts->state = state_out.str();

  artifacts->trace = EncodeTraceText(recorder.Finish(service));
  artifacts->plan = EncodePlanText(*BuildQueryPlan(db, FindQuery("q3")));
  std::ostringstream dictionary_out;
  WriteDictionary(ticket.session->dictionary(), dictionary_out);
  artifacts->dictionary = dictionary_out.str();
  return artifacts;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string line;
  for (size_t i = 0; i < tokens.size(); ++i) {
    line += (i == 0 ? "" : " ") + tokens[i];
  }
  return line;
}

// Applies one seeded mutation anywhere in the text, the header line included.
std::string Mutate(const std::string& text, Lcg& rng) {
  if (text.empty()) {
    return text;
  }
  // Replacement bytes and tokens lean towards what parsers trip over: digits that grow counts,
  // hex-ish letters, separators, signs, and values at the edges of the integer types.
  // Inserted tokens are the formats' own section markers, some with the largest count.
  static const char kBytes[] = "0123456789abcdefzG -%\n\t#";
  static const char* const kTokens[] = {"0",  "-1", "4294967296", "99999999999999999999",
                                        "zz", "%",  "nan"};
  static const char* const kInserts[] = {"S 18446744073709551615", "R", "W 4294967296", "T",
                                         "x", "op"};
  std::string out = text;
  std::vector<std::string> lines = SplitLines(text);
  // Token edits get half the weight: they reach the count and range checks, which byte-level
  // damage mostly hides behind an earlier parse failure.
  switch (rng.Below(10)) {
    case 0: {  // Byte flip.
      const size_t at = rng.Below(out.size());
      out[at] = rng.Below(4) == 0 ? static_cast<char>(rng.Below(256))
                                  : kBytes[rng.Below(sizeof(kBytes) - 1)];
      return out;
    }
    case 1:  // Truncation.
      out.resize(rng.Below(out.size()));
      return out;
    case 2:  // Dropped line.
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(rng.Below(lines.size())));
      return JoinLines(lines);
    case 3: {  // Duplicated line.
      const size_t at = rng.Below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      return JoinLines(lines);
    }
    case 4:  // Swapped lines.
      std::swap(lines[rng.Below(lines.size())], lines[rng.Below(lines.size())]);
      return JoinLines(lines);
    default: {  // Swapped, replaced or inserted tokens within one line.
      std::string& line = lines[rng.Below(lines.size())];
      std::vector<std::string> tokens = SplitTokens(line);
      if (tokens.empty()) {
        return out;
      }
      switch (rng.Below(3)) {
        case 0:
          std::swap(tokens[rng.Below(tokens.size())], tokens[rng.Below(tokens.size())]);
          break;
        case 1:
          // Half the replacements are the largest count, which `-1` also wraps to.
          tokens[rng.Below(tokens.size())] = rng.Below(2) == 0
                                                 ? "18446744073709551615"
                                                 : kTokens[rng.Below(std::size(kTokens))];
          break;
        default:
          tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(rng.Below(tokens.size() + 1)),
                        kInserts[rng.Below(std::size(kInserts))]);
          break;
      }
      line = JoinTokens(tokens);
      return JoinLines(lines);
    }
  }
}

// The property: each mutated artifact parses or throws dfp::Error. Any other exception is a
// parser fault (an abort ends the test binary, which fails it too).
void ExpectOnlyDfpErrors(const std::string& format, const std::string& artifact, uint64_t seed,
                         const std::function<void(const std::string&)>& read) {
  ASSERT_FALSE(artifact.empty()) << format;
  ASSERT_NO_THROW(read(artifact)) << format << ": the unmutated artifact must parse";
  constexpr int kTrials = 2000;
  Lcg rng(seed);
  int rejected = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string mutated = Mutate(artifact, rng);
    if (rng.Below(3) == 0) {
      mutated = Mutate(mutated, rng);
    }
    try {
      read(mutated);
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << format << " trial " << trial << " (seed " << seed
                    << "): non-dfp exception " << e.what();
    }
  }
  // The mutations genuinely reach the error paths; comment lines and benign flips may parse.
  EXPECT_GT(rejected, kTrials / 4) << format;
}

TEST(TextFormats, EveryOtherHeaderIsRejected) {
  // One valid file of each format at its current version; every other version of the same
  // header must be refused before the body is read.
  SampleStream stream;
  stream.samples.resize(1);
  std::ostringstream samples;
  WriteSamples(stream, samples);
  ServiceProfile profile;
  FleetPlanProfile plan;
  plan.fingerprint = 0x42;
  plan.name = "q6";
  profile.AddLoadedPlan(plan);
  std::ostringstream state;
  WriteServiceState(profile, WindowedProfile(), BaselineStore(), 7, state);

  struct Format {
    std::string prefix;
    int current;
    std::string text;
    std::function<void(const std::string&)> read;
  };
  TaggingDictionary dictionary;
  dictionary.LinkInstr(3, dictionary.AddTask(0, "scan"));
  std::ostringstream dictionary_text;
  WriteDictionary(dictionary, dictionary_text);

  const Format formats[] = {
      {"# dfp tagging dictionary v", 1, dictionary_text.str(), ReadDictionaryText},
      {"# dfp samples v", 8, samples.str(), ReadSampleText},
      {"# dfp service profile v", 6, state.str(), ReadStateText},
      {"# dfp trace v", 4, EncodeTraceText(WorkloadTrace()), ReadTraceText},
  };
  for (const Format& format : formats) {
    const std::string current = format.prefix + std::to_string(format.current);
    ASSERT_EQ(format.text.rfind(current + "\n", 0), 0u) << format.text;
    ASSERT_NO_THROW(format.read(format.text)) << current;
    const std::string body = format.text.substr(format.text.find('\n'));
    for (int version = 1; version <= format.current + 1; ++version) {
      if (version == format.current) {
        continue;
      }
      const std::string found = "v" + std::to_string(version);
      try {
        format.read(format.prefix + std::to_string(version) + body);
        ADD_FAILURE() << current << " reader accepted " << found;
      } catch (const Error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("regenerate with this build"), std::string::npos) << message;
        EXPECT_NE(message.find(found), std::string::npos) << message;
      }
    }
  }
}

TEST(TextFormats, SeededMutationsOfASampleStream) {
  const std::unique_ptr<Artifacts> artifacts = MakeArtifacts();
  // The artifact carries every section the reader returns.
  std::istringstream in(artifacts->samples);
  const SampleStream stream = ReadSamples(in);
  EXPECT_FALSE(stream.samples.empty());
  EXPECT_FALSE(stream.tasks.empty());
  EXPECT_FALSE(stream.events.empty());
  for (const char* token : {" W ", " N ", " R ", " G "}) {
    EXPECT_NE(artifacts->samples.find(token), std::string::npos) << token;
  }
  ExpectOnlyDfpErrors("samples", artifacts->samples, 1, ReadSampleText);
}

TEST(TextFormats, SeededMutationsOfAServiceState) {
  const std::unique_ptr<Artifacts> artifacts = MakeArtifacts();
  for (const char* kind : {"\nclock ", "\nwindowcfg ", "\nwindow ", "\nwop ", "\nbaseline ",
                           "\nbop ", "\nslackgen ", "\nslackstep ", "\ncardgen ", "\ncard "}) {
    EXPECT_NE(artifacts->state.find(kind), std::string::npos) << kind;
  }
  ExpectOnlyDfpErrors("service state", artifacts->state, 2, ReadStateText);
}

TEST(TextFormats, SeededMutationsOfATrace) {
  const std::unique_ptr<Artifacts> artifacts = MakeArtifacts();
  ExpectOnlyDfpErrors("trace", artifacts->trace, 3, ReadTraceText);
}

TEST(TextFormats, SeededMutationsOfAPlan) {
  const std::unique_ptr<Artifacts> artifacts = MakeArtifacts();
  const Database& db = *artifacts->db;
  ExpectOnlyDfpErrors("plan", artifacts->plan, 4,
                      [&db](const std::string& text) { ParsePlanText(text, db); });
}

TEST(TextFormats, SeededMutationsOfATaggingDictionary) {
  const std::unique_ptr<Artifacts> artifacts = MakeArtifacts();
  ExpectOnlyDfpErrors("dictionary", artifacts->dictionary, 5, ReadDictionaryText);
}

}  // namespace
}  // namespace dfp
