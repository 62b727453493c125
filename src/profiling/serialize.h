// Serialization of profiling meta-data and samples.
//
// The paper's prototype writes the Tagging Dictionary to a meta-data file at the end of
// compilation and feeds samples through `perf script` into a decoupled post-processing phase.
// These functions provide the same decoupling: a dictionary and a sample stream written by one
// process can be resolved by another (or archived next to a recorded profile).
#ifndef DFP_SRC_PROFILING_SERIALIZE_H_
#define DFP_SRC_PROFILING_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/pmu/sample.h"
#include "src/profiling/tagging_dictionary.h"

namespace dfp {

// One timestamped annotation interleaved with a sample stream — the vehicle for tier-transition
// events ("tier <fingerprint-hex> baseline optimized decided|swapped"), mirroring perf's
// sideband records. `text` is a single line without newlines.
struct SampleStreamEvent {
  uint64_t tsc = 0;
  std::string text;
};

// Line-oriented text format:
//   # dfp tagging dictionary v1
//   task <task-id> <operator-id> <name...>
//   link <ir-id> <task-id> [<task-id>...]
void WriteDictionary(const TaggingDictionary& dictionary, std::ostream& out);

// Inverse of WriteDictionary. Throws dfp::Error on malformed input, including a link to a task
// not declared above it.
TaggingDictionary ReadDictionary(std::istream& in);

// A perf-script-like sample dump with its sideband: everything one profiled execution leaves
// behind besides the Tagging Dictionary. `events`, `sched` and `reopt` must each be ascending by
// tsc (they are appended as the service clock advances).
struct SampleStream {
  std::vector<Sample> samples;
  std::vector<TaskBoundary> tasks;        // Executor task boundaries, in execution order.
  std::vector<SampleStreamEvent> events;  // Tier transitions (src/tiering/).
  std::vector<SampleStreamEvent> sched;   // Placement repairs, deadline rejections (src/service/).
  std::vector<SampleStreamEvent> reopt;   // Re-optimization actions (src/reopt/).
};

// Line-oriented text format, one version:
//   # dfp samples v8
//   task <start-tsc> <end-tsc> <worker> <kind> <step> <pipeline> <morsel-begin> <morsel-end>
//        <stolen> <instrs> <loads> <l1-miss> <l2-miss> <l3-miss> <remote-dram>
//   sample <tsc> <ip> <addr> [W <worker>] [N <node> <remote> | X <machine-node>] [T] [G <tier>]
//          [D <shard>] [R <16 register values>] [S <depth> <return-ips...>]
//   event <tsc> <text...>
//   sched <tsc> <text...>
//   reopt <tsc> <text...>
// Optional per-sample fields are marked by their own tokens and written only when set: W for a
// worker other than 0, N for a NUMA node or remote access, X (instead of N) for a cross-machine
// access whose node is the owning machine, T for a stolen morsel, G for a non-zero tier, D for a
// shard, R for captured registers, S for a call stack. Task lines are written as a block right
// after the header (they are a schedule, not a sample timeline), which makes the per-query task
// DAG (src/critpath/) recoverable from a recorded stream alone. Sideband lines interleave in
// timestamp order: each precedes the first sample whose tsc passes its own, and at equal tsc
// `event` precedes `sched` precedes `reopt`. A session id is never written: dumped streams are
// per-session by construction (see src/pmu/sample.h).
void WriteSamples(const SampleStream& stream, std::ostream& out);

// Inverse of WriteSamples: returns every section. Throws dfp::Error on malformed input and on
// any header other than this build's, naming the version found.
SampleStream ReadSamples(std::istream& in);

}  // namespace dfp

#endif  // DFP_SRC_PROFILING_SERIALIZE_H_
