// Loopback clients for skybench: an open-loop reader that sends queries on
// a fixed schedule over up to four connections from up to two threads, and
// a closed-loop writer that alternates insert and delete, each acked before
// the next is sent. Replies are parsed off the wire by the benchmark's own
// parser, never by skydia's protocol code.
#ifndef SKYBENCH_SRC_LOOPBACK_H_
#define SKYBENCH_SRC_LOOPBACK_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "src/geometry/point.h"

namespace skybench {

/// Latency recorded for a request that failed, was refused or was dropped:
/// it counts as missing any latency limit.
inline constexpr double kFailedLatencyUs = 1e12;

/// One reply line, parsed by the benchmark.
struct Reply {
  bool error = false;
  std::string code;        ///< error code when `error`
  int64_t id = -1;         ///< echoed correlation id
  uint64_t gen = 0;        ///< snapshot generation
  int64_t point = -1;      ///< insert acks: the new point id
  bool has_ids = false;
  uint64_t ids_hash = 0;   ///< HashIds of the "ids" array
};

/// Parses one reply line (no newline). Returns false when the line is not a
/// reply object the benchmark understands.
bool ParseReply(std::string_view line, Reply* out);

/// Order-sensitive hash of a sorted id list (FNV-1a over the values).
uint64_t HashIds(const uint32_t* ids, size_t n);

/// Reader connections and the client threads driving them (two each).
inline constexpr int kConnections = 4;
inline constexpr int kClientThreads = 2;

struct OpenLoopConfig {
  int port = 0;
  double rate = 1000;  ///< offered requests per second, all connections
  double seconds = 1;  ///< sending window; replies may drain 0.5 s longer
  const std::vector<skydia::Point2D>* pool = nullptr;  ///< query points
  /// Expected reply hash per pool point (null: replies are not checked).
  const std::vector<uint64_t>* expected = nullptr;
  /// Record one span per request (traced runs).
  bool trace = false;
  uint64_t seed = 1;
  /// Requests a connection may have outstanding (its pipeline depth);
  /// beyond this the generator falls behind its schedule, which shows as
  /// latency because latency runs from the due time. 64 matches the
  /// server's default inline batch limit: a deeper burst is handed to the
  /// worker pool, where reads queue behind mutation applies.
  int max_outstanding = 64;
};

struct OpenLoopResult {
  uint64_t attempted = 0;
  uint64_t answered = 0;
  uint64_t failed = 0;  ///< error replies + dropped + unanswered + wrong
  uint64_t wrong = 0;
  uint64_t non_monotone_gen = 0;
  std::map<std::string, uint64_t> error_codes;
  std::vector<double> latency_us;   ///< from due time; failures = kFailed
  std::vector<uint64_t> due_ns;     ///< due time of each latency sample
  uint64_t start_ns = 0;            ///< the schedule's time zero
  std::vector<double> lateness_us;  ///< send time minus due time
  double wall_seconds = 0;          ///< first due to last reply
  double client_cpu_seconds = 0;
};

/// Runs one open-loop phase against 127.0.0.1:`port`. Also the result type
/// of the benchmark's in-process open loop.
OpenLoopResult RunOpenLoop(const OpenLoopConfig& config);

/// One acknowledged (or failed) write of the closed-loop writer.
struct WriteRecord {
  bool ok = false;
  uint64_t send_ns = 0;
  uint64_t ack_ns = 0;
  uint64_t bound = 0;  ///< ack generation (visibility lower bound)
};

/// Closed-loop loopback writer. Each Write() sends one op — alternately the
/// insert of a random point and the delete of that point — and waits for
/// its ack. Owns its connection; the destructor deletes a point still live
/// so the dataset ends as it started.
class LoopbackWriter {
 public:
  LoopbackWriter(int port, int64_t domain, uint64_t seed);
  ~LoopbackWriter();
  LoopbackWriter(const LoopbackWriter&) = delete;
  LoopbackWriter& operator=(const LoopbackWriter&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Sends one op and fills `record`. Returns false when the connection is
  /// lost (the record is then not valid).
  bool Write(WriteRecord* record);

 private:
  /// Sends `line` and parses the next reply line into `reply`.
  bool RoundTrip(const char* line, size_t n, Reply* reply);

  int fd_ = -1;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<int64_t> coord_;
  std::string in_;
  int64_t seq_ = 0;
  int64_t live_point_ = -1;  ///< -1: the next op is an insert
};

/// Process CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();

}  // namespace skybench

#endif  // SKYBENCH_SRC_LOOPBACK_H_
