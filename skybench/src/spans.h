// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a skydia layer in a span:
// name (the layer's module, e.g. "core.query_engine.batch"), start, end,
// the enclosing span, and an operation id shared by the spans of one
// request. Spans go to a per-thread vector and are written out once, at
// the end, as Chrome trace-event JSON (the format skydia's /debug/trace
// uses), together with each layer's self time: its spans' duration minus
// the part covered by their child spans.
//
// Recording is off unless Enable() was called; a disabled ScopedSpan costs
// one relaxed load.
#ifndef SKYBENCH_SRC_SPANS_H_
#define SKYBENCH_SRC_SPANS_H_

#include <cstdint>
#include <map>
#include <string>

namespace skybench::spans {

void Enable(bool on);
bool Enabled();

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

/// Opens a span on the calling thread; nested spans take the innermost
/// open span as their parent. `name` must be a string literal.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t op_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;  // -1 when recording is off
};

/// Records a finished span with explicit times (for request spans whose
/// start and end are observed at different points of a client loop).
void Record(const char* name, uint64_t op_id, uint64_t start_ns,
            uint64_t end_ns);

/// Self time per span name, in seconds, over every thread's spans.
std::map<std::string, double> SelfSeconds();

/// Number of spans recorded so far.
uint64_t Count();

/// Writes every recorded span as Chrome trace-event JSON. Returns false on
/// an I/O error.
bool WriteChromeTrace(const std::string& path);

}  // namespace skybench::spans

#endif  // SKYBENCH_SRC_SPANS_H_
