#include "dfpbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace dfpbench {

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder->enabled_ ? recorder : nullptr) {
  if (recorder_ == nullptr) {
    return;
  }
  index_ = static_cast<int32_t>(recorder_->spans_.size());
  recorder_->spans_.push_back({name, NowNs(), 0, recorder_->open_, recorder_->request_});
  recorder_->open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) {
    return;
  }
  Span& span = recorder_->spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  recorder_->open_ = span.parent;
}

void SpanRecorder::WriteTsv(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "request\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", span.request, i, span.parent,
                 span.name.c_str(), static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  std::fclose(file);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent != kNoParent) {
      children[static_cast<size_t>(span.parent)].push_back({span.start_ns, span.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;  // Everything before `reach` is already counted.
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, span.end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    self[i] = span.end_ns - span.start_ns - covered;
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans,
                                              const std::string& root) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  // Parents precede their children, so one forward pass marks every descendant of a root.
  std::vector<bool> included(spans.size(), root.empty());
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    included[i] = included[i] || span.name == root ||
                  (span.parent != kNoParent && included[static_cast<size_t>(span.parent)]);
    if (included[i]) {
      by_name[span.name] += self[i];
    }
  }
  return by_name;
}

}  // namespace dfpbench
