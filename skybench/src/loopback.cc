#include "loopback.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <deque>
#include <random>
#include <thread>

#include "spans.h"

namespace skybench {
namespace {

int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Reads the unsigned/signed integer after `key` in `line`; false if absent.
bool FindInt(std::string_view line, std::string_view key, int64_t* out) {
  const size_t pos = line.find(key);
  if (pos == std::string_view::npos) return false;
  const char* begin = line.data() + pos + key.size();
  const char* end = line.data() + line.size();
  return std::from_chars(begin, end, *out).ec == std::errc();
}

struct Pending {
  uint64_t due_ns;
  uint64_t send_ns;
  uint32_t pool_index;
  int64_t id;
};

struct Conn {
  int fd = -1;
  bool dead = false;
  int index = 0;        // connection number in [0, connections)
  uint64_t next_seq = 0;
  std::string out;      // bytes not yet sent
  std::string in;       // bytes not yet parsed
  std::deque<Pending> fifo;
  uint64_t last_gen = 0;
  std::mt19937_64 rng;
};

void RunClientThread(const OpenLoopConfig& cfg, std::vector<Conn>* conns,
                     uint64_t t0, OpenLoopResult* res) {
  const double cpu0 = ThreadCpuSeconds();
  const double per_conn_interval_ns =
      1e9 * static_cast<double>(kConnections) / cfg.rate;
  const uint64_t send_end = t0 + static_cast<uint64_t>(cfg.seconds * 1e9);
  const uint64_t drain_end =
      send_end + 500'000'000;  // replies may drain 0.5 s longer
  const auto& pool = *cfg.pool;
  char line[128];
  char buf[1 << 16];
  uint64_t last_reply_ns = t0;
  std::vector<pollfd> fds;
  const auto due_of = [&](const Conn& c, uint64_t seq) {
    // Connections are staggered by a fraction of one interval.
    return t0 + static_cast<uint64_t>(
                    (static_cast<double>(seq) +
                     static_cast<double>(c.index) / kConnections) *
                    per_conn_interval_ns);
  };
  const auto record = [&](uint64_t due_ns, double latency_us) {
    res->latency_us.push_back(latency_us);
    res->due_ns.push_back(due_ns);
  };
  const auto fail_outstanding = [&](Conn& c) {
    for (const Pending& p : c.fifo) {
      record(p.due_ns, kFailedLatencyUs);
      ++res->failed;
    }
    c.fifo.clear();
  };
  for (;;) {
    const uint64_t now = spans::NowNs();
    bool progressed = false;
    bool pending = false;   // requests still due to be sent or answered
    bool awaiting = false;  // replies outstanding
    uint64_t next_due = drain_end;
    for (Conn& c : *conns) {
      if (c.dead) continue;
      // Send every request that is due (up to the pipeline depth). A
      // request due before the end of the window is sent even if late.
      for (;;) {
        const uint64_t due = due_of(c, c.next_seq);
        if (due >= send_end) break;
        pending = true;
        if (due > now) {
          next_due = std::min(next_due, due);
          break;
        }
        if (static_cast<int>(c.fifo.size()) >= cfg.max_outstanding) break;
        const uint32_t idx =
            static_cast<uint32_t>(c.rng() % pool.size());
        const int64_t id = static_cast<int64_t>(c.next_seq);
        const int n = std::snprintf(line, sizeof(line),
                                    "{\"q\":[%lld,%lld],\"id\":%lld}\n",
                                    static_cast<long long>(pool[idx].x),
                                    static_cast<long long>(pool[idx].y),
                                    static_cast<long long>(id));
        c.out.append(line, static_cast<size_t>(n));
        c.fifo.push_back(Pending{due, now, idx, id});
        res->lateness_us.push_back(static_cast<double>(now - due) / 1e3);
        ++res->attempted;
        ++c.next_seq;
        progressed = true;
      }
      if (!c.out.empty()) {
        const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          c.out.erase(0, static_cast<size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          c.dead = true;
          fail_outstanding(c);
          continue;
        }
      }
      if (c.fifo.empty()) continue;
      pending = true;
      awaiting = true;
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        c.dead = true;  // dropped by the server
        fail_outstanding(c);
        continue;
      }
      if (n < 0) continue;
      progressed = true;
      const uint64_t recv_ns = spans::NowNs();
      c.in.append(buf, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl = c.in.find('\n'); nl != std::string::npos;
           nl = c.in.find('\n', start)) {
        const std::string_view text(c.in.data() + start, nl - start);
        start = nl + 1;
        if (c.fifo.empty()) {  // a reply nobody asked for
          ++res->failed;
          ++res->wrong;
          continue;
        }
        const Pending p = c.fifo.front();
        c.fifo.pop_front();
        last_reply_ns = recv_ns;
        Reply reply;
        const bool parsed = ParseReply(text, &reply);
        if (cfg.trace) {
          spans::Record("bench.client.request", (uint64_t{1} << 48) |
                        (static_cast<uint64_t>(c.index) << 40) |
                        static_cast<uint64_t>(p.id),
                        p.send_ns, recv_ns);
        }
        if (!parsed || reply.error || !reply.has_ids || reply.id != p.id) {
          ++res->failed;
          record(p.due_ns, kFailedLatencyUs);
          if (reply.error) {
            ++res->error_codes[reply.code.empty() ? "unknown" : reply.code];
          } else {
            ++res->wrong;
          }
          continue;
        }
        if (reply.gen < c.last_gen) ++res->non_monotone_gen;
        c.last_gen = reply.gen;
        if (cfg.expected != nullptr &&
            (*cfg.expected)[p.pool_index] != reply.ids_hash) {
          ++res->failed;
          ++res->wrong;
          record(p.due_ns, kFailedLatencyUs);
          continue;
        }
        ++res->answered;
        record(p.due_ns, static_cast<double>(recv_ns - p.due_ns) / 1e3);
      }
      c.in.erase(0, start);
    }
    if (!pending) break;
    const uint64_t after = spans::NowNs();
    if (after >= drain_end) break;
    if (progressed) continue;
    // Nothing to do right now: block until a reply arrives, a socket drains
    // or the next request falls due, leaving the cores to the server.
    fds.clear();
    for (const Conn& c : *conns) {
      if (c.dead) continue;
      pollfd pfd{};
      pfd.fd = c.fd;
      pfd.events = static_cast<short>((c.fifo.empty() ? 0 : POLLIN) |
                                      (c.out.empty() ? 0 : POLLOUT));
      fds.push_back(pfd);
    }
    const uint64_t wake = std::min(next_due, drain_end);
    const uint64_t wait_ns = wake > after ? wake - after : 0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000);
    if (awaiting || wait_ns > 0) ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  }
  // Anything still outstanding, or due but never sent, missed the deadline.
  for (Conn& c : *conns) {
    if (!c.dead) fail_outstanding(c);
    for (uint64_t due = due_of(c, c.next_seq); due < send_end;
         due = due_of(c, ++c.next_seq)) {
      ++res->attempted;
      ++res->failed;
      record(due, kFailedLatencyUs);
    }
  }
  res->start_ns = t0;
  res->wall_seconds = static_cast<double>(last_reply_ns - t0) / 1e9;
  res->client_cpu_seconds = ThreadCpuSeconds() - cpu0;
}

void Merge(OpenLoopResult&& from, OpenLoopResult* into) {
  into->attempted += from.attempted;
  into->answered += from.answered;
  into->failed += from.failed;
  into->wrong += from.wrong;
  into->non_monotone_gen += from.non_monotone_gen;
  for (const auto& [code, n] : from.error_codes) into->error_codes[code] += n;
  into->latency_us.insert(into->latency_us.end(), from.latency_us.begin(),
                          from.latency_us.end());
  into->due_ns.insert(into->due_ns.end(), from.due_ns.begin(),
                      from.due_ns.end());
  into->lateness_us.insert(into->lateness_us.end(), from.lateness_us.begin(),
                           from.lateness_us.end());
  into->start_ns = from.start_ns;  // every thread shares the schedule
  into->wall_seconds = std::max(into->wall_seconds, from.wall_seconds);
  into->client_cpu_seconds += from.client_cpu_seconds;
}

}  // namespace

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

uint64_t HashIds(const uint32_t* ids, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= ids[i] + 1;
    h *= 1099511628211ull;
  }
  return h ^ n;
}

bool ParseReply(std::string_view line, Reply* out) {
  *out = Reply{};
  if (line.empty() || line.front() != '{') return false;
  int64_t v = 0;
  if (line.size() > 5 && line.substr(1, 5) == "\"id\":" &&
      FindInt(line, "\"id\":", &v)) {
    out->id = v;
  }
  if (line.find("\"error\":") != std::string_view::npos) {
    out->error = true;
    const size_t pos = line.find("\"code\":\"");
    if (pos != std::string_view::npos) {
      const size_t begin = pos + 8;
      const size_t end = line.find('"', begin);
      if (end != std::string_view::npos) {
        out->code = std::string(line.substr(begin, end - begin));
      }
    }
    return true;
  }
  if (FindInt(line, "\"gen\":", &v)) out->gen = static_cast<uint64_t>(v);
  if (FindInt(line, "\"point\":", &v)) out->point = v;
  const size_t ids = line.find("\"ids\":[");
  if (ids != std::string_view::npos) {
    size_t count = 0;
    const char* p = line.data() + ids + 7;
    const char* end = line.data() + line.size();
    uint64_t h = 1469598103934665603ull;
    while (p < end && *p != ']') {
      uint32_t id = 0;
      const auto r = std::from_chars(p, end, id);
      if (r.ec != std::errc()) return false;
      h ^= uint64_t{id} + 1;
      h *= 1099511628211ull;
      ++count;
      p = r.ptr;
      if (p < end && *p == ',') ++p;
    }
    if (p >= end) return false;
    out->has_ids = true;
    out->ids_hash = h ^ count;
  }
  return true;
}

OpenLoopResult RunOpenLoop(const OpenLoopConfig& cfg) {
  std::vector<std::vector<Conn>> per_thread(kClientThreads);
  OpenLoopResult total;
  for (int i = 0; i < kConnections; ++i) {
    Conn c;
    c.index = i;
    c.fd = Dial(cfg.port);
    c.rng.seed(cfg.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i));
    if (c.fd < 0) c.dead = true;  // refused: every request to it fails
    per_thread[static_cast<size_t>(i % kClientThreads)].push_back(
        std::move(c));
  }
  std::vector<OpenLoopResult> results(kClientThreads);
  const uint64_t t0 = spans::NowNs() + 1'000'000;  // 1 ms to spin up
  {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kClientThreads; ++t) {
      workers.emplace_back([&, t] {
        RunClientThread(cfg, &per_thread[t], t0, &results[t]);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (auto& conns : per_thread) {
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  for (auto& r : results) Merge(std::move(r), &total);
  return total;
}

LoopbackWriter::LoopbackWriter(int port, int64_t domain, uint64_t seed)
    : fd_(Dial(port)),
      rng_(seed ^ 0xD1B54A32D192ED03ull),
      coord_(0, domain - 1) {}

LoopbackWriter::~LoopbackWriter() {
  if (fd_ < 0) return;
  if (live_point_ >= 0) {
    WriteRecord ignored;
    (void)Write(&ignored);
  }
  ::close(fd_);
}

bool LoopbackWriter::RoundTrip(const char* line, size_t n, Reply* reply) {
  for (size_t off = 0; off < n;) {
    const ssize_t sent = ::send(fd_, line + off, n - off, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    off += static_cast<size_t>(sent);
  }
  char buf[4096];
  size_t nl;
  while ((nl = in_.find('\n')) == std::string::npos) {
    const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r <= 0) return false;
    in_.append(buf, static_cast<size_t>(r));
  }
  const bool parsed = ParseReply(std::string_view(in_.data(), nl), reply);
  in_.erase(0, nl + 1);
  return parsed;
}

bool LoopbackWriter::Write(WriteRecord* record) {
  if (fd_ < 0) return false;
  char line[160];
  const bool insert = live_point_ < 0;
  const int n =
      insert ? std::snprintf(
                   line, sizeof(line),
                   "{\"cmd\":\"insert\",\"x\":%lld,\"y\":%lld,\"id\":%lld}\n",
                   static_cast<long long>(coord_(rng_)),
                   static_cast<long long>(coord_(rng_)),
                   static_cast<long long>(seq_))
             : std::snprintf(line, sizeof(line),
                             "{\"cmd\":\"delete\",\"point\":%lld,\"id\":%lld}\n",
                             static_cast<long long>(live_point_),
                             static_cast<long long>(seq_));
  *record = WriteRecord{};
  record->send_ns = spans::NowNs();
  Reply reply;
  if (!RoundTrip(line, static_cast<size_t>(n), &reply)) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  record->ack_ns = spans::NowNs();
  record->ok = !reply.error && reply.id == seq_;
  record->bound = reply.gen;
  ++seq_;
  // A failed insert retries with a new point; a failed delete retries.
  if (record->ok) live_point_ = insert ? reply.point : -1;
  return true;
}

}  // namespace skybench
