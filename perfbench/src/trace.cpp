#include "trace.h"

namespace perfbench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ms - spans[i].start_ms;
  for (const Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
  return self;
}

}  // namespace perfbench
