// In-memory spans recorded by the benchmark around its calls into each dfp layer.
//
// A span has a name, host start and end times, the span that was open when it began (its
// parent) and the id of the request it belongs to. Spans are kept in memory while the
// workload runs and written out once at the end, so recording costs two clock reads and a
// vector append. A disabled recorder records nothing, which is how the untraced runs that
// produce the end-to-end metrics call the same code.
#ifndef DFPBENCH_TRACE_H_
#define DFPBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dfpbench {

inline constexpr int32_t kNoParent = -1;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = kNoParent;  // Index into the recorder's span list.
  uint32_t request = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;  // Null when the recorder is disabled.
    int32_t index_ = kNoParent;
  };

  bool enabled() const { return enabled_; }
  // Spans opened from now on belong to a new request.
  void BeginRequest() { ++request_; }
  uint32_t request() const { return request_; }
  const std::vector<Span>& spans() const { return spans_; }

  // One line per span: request, index, parent, name, start and end in ns from the first span.
  void WriteTsv(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  uint32_t request_ = 0;
  int32_t open_ = kNoParent;  // Innermost open span.
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval that its children
// cover (overlapping children are counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Self time summed per span name, over the spans named `root` and their descendants (all spans
// when `root` is empty).
std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans,
                                              const std::string& root = "");

}  // namespace dfpbench

#endif  // DFPBENCH_TRACE_H_
