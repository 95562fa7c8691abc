// In-memory spans recorded by the benchmark around each public layer
// call of the traced run, written out when the run ends.
#pragma once

#include <vector>

#include "calib.h"

namespace perfbench {

struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int op = 0;       ///< unit (step or op) the span belongs to
};

class Tracer {
 public:
  int open(const char* name) {
    spans_.push_back({name, now_ms(), 0.0, current_, op_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  void set_op(int op) { op_ = op; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
  int op_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Self time (ms) of every span: its duration minus the time its direct
/// children cover.
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
