#include "spans.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <vector>

namespace skybench::spans {
namespace {

struct SpanRecord {
  const char* name;
  uint64_t op_id;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  // index into the same thread's buffer, -1 = root
};

struct ThreadBuffer {
  uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<int64_t> open;  // stack of open span indexes
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
// Buffers live until process exit so a finished thread's spans survive.
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer* Local() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_mu);
    auto& all = Buffers();
    all.push_back(std::make_unique<ThreadBuffer>());
    all.back()->tid = static_cast<uint32_t>(all.size());
    all.back()->spans.reserve(1 << 16);
    return all.back().get();
  }();
  return buffer;
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedSpan::ScopedSpan(const char* name, uint64_t op_id) {
  if (!Enabled()) return;
  ThreadBuffer* b = Local();
  const int64_t parent = b->open.empty() ? -1 : b->open.back();
  index_ = static_cast<int64_t>(b->spans.size());
  b->spans.push_back(SpanRecord{name, op_id, NowNs(), 0, parent});
  b->open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  ThreadBuffer* b = Local();
  b->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  b->open.pop_back();
}

void Record(const char* name, uint64_t op_id, uint64_t start_ns,
            uint64_t end_ns) {
  if (!Enabled()) return;
  ThreadBuffer* b = Local();
  const int64_t parent = b->open.empty() ? -1 : b->open.back();
  b->spans.push_back(SpanRecord{name, op_id, start_ns, end_ns, parent});
}

std::map<std::string, double> SelfSeconds() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, double> self;
  for (const auto& b : Buffers()) {
    std::vector<uint64_t> child_ns(b->spans.size(), 0);
    for (const SpanRecord& s : b->spans) {
      if (s.parent >= 0 && s.end_ns >= s.start_ns) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      if (s.end_ns < s.start_ns) continue;  // still open
      const uint64_t total = s.end_ns - s.start_ns;
      const uint64_t own = total > child_ns[i] ? total - child_ns[i] : 0;
      self[s.name] += static_cast<double>(own) / 1e9;
    }
  }
  return self;
}

uint64_t Count() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t n = 0;
  for (const auto& b : Buffers()) n += b->spans.size();
  return n;
}

bool WriteChromeTrace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& b : Buffers()) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      if (s.end_ns < s.start_ns) continue;
      if (!first) out << ",\n";
      first = false;
      // Span ids are (tid << 32 | index + 1); parent 0 means root.
      const uint64_t id = (uint64_t{b->tid} << 32) | (i + 1);
      const uint64_t parent =
          s.parent < 0 ? 0
                       : (uint64_t{b->tid} << 32) |
                             (static_cast<uint64_t>(s.parent) + 1);
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << b->tid << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"span\":" << id << ",\"parent\":" << parent
          << ",\"op\":" << s.op_id << "}}";
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace skybench::spans
