// skybench: the skydia benchmark program.
//
//   skybench --workload NAME --seed N --seconds S --trace 0|1
//
// Builds the workload's fixture from GenerateDataset with the seed, runs it
// for about S seconds against the public API and the loopback server in
// this process, checks the answers against the brute-force oracles, and
// prints one JSON object as the last line of stdout:
//
//   {"correct":true,"attempted":N,"failed":F,"metrics":{NAME:{value,unit}}}
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: the same fixture and query stream, with a span around every
// call into a layer, and reports the per-layer metrics; the spans go to
// .bench_out/<workload>-<seed>.trace.json (Chrome trace JSON) and the
// layer self times and serving-ladder rungs to
// .bench_out/<workload>-<seed>.layers.json.
//
// Exit status: 0 when every checked answer was right, 1 on any wrong
// answer, 2 on a usage or set-up error (no result line).
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "loopback.h"
#include "spans.h"
#include "src/core/build_report.h"
#include "src/core/diagram.h"
#include "src/core/query_engine.h"
#include "src/core/serialize.h"
#include "src/datagen/distributions.h"
#include "src/serve/metrics.h"
#include "src/serve/mutation_pipeline.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/snapshot_registry.h"
#include "src/skyline/query.h"
#include "stats.h"

namespace skybench {
namespace {

using skydia::BuildAlgorithm;
using skydia::CellDiagram;
using skydia::Dataset;
using skydia::Point2D;
using skydia::PointId;
using skydia::QueryEngine;
using skydia::QueryEngineOptions;
using skydia::ServableDiagram;
using skydia::SetId;
using skydia::SkylineQueryType;
using skydia::SubcellDiagram;

constexpr const char* kOutDir = ".bench_out";

// ---------------------------------------------------------------------------
// Workloads.
//
// A "read" is what one user request carries: a loopback request of one
// query for serve_hot, an AnswerBatch call of 64 queries by an embedder
// thread for the engine workloads (the size the server answers inline).
// Reads are offered open loop at fixed query rates. The engine metrics are
// closed-loop AnswerBatch calls of 4096 queries on the workload's engine.

struct Workload {
  const char* name;
  SkylineQueryType type;
  size_t n;
  int64_t domain;
  bool loopback;         ///< reads over loopback, else in-process
  int setup_reps;        ///< set-ups per run; setup_s is their median
  double reference_qps;  ///< offered queries/s at the reference point
  /// p99 limit of one read, the ladder's pass rule: 1 ms over loopback;
  /// 5 ms in process, above the 1-5 ms scheduling stalls a single embedder
  /// thread sees on a shared 4-vCPU host, so a rung fails on a growing
  /// backlog rather than on one stall.
  double read_limit_us;
  double ladder_lo_qps;  ///< first rung of the offered-rate ladder
  double ladder_hi_qps;  ///< ladder ceiling
};

constexpr int64_t kWideDomain = int64_t{1} << 20;
constexpr size_t kBatch = 4096;        ///< queries per engine batch
constexpr size_t kReadBatch = 64;      ///< queries per in-process read
constexpr size_t kHotPool = 4096;      ///< serve_hot's distinct hot points
constexpr int kEngineThreads = 2;      ///< engine workloads' pool size
/// Closed-loop engine windows in the traced run, of kWindowBatches each.
constexpr size_t kEngineWindows = 9;
constexpr uint64_t kWindowBatches = 250;
/// Share of the run the untraced write probe spends writing, in segments of
/// kWriteSegmentShare between ladder rungs.
constexpr double kWriteShare = 0.25;
constexpr double kWriteSegmentShare = 0.0125;

const Workload kWorkloads[] = {
    // Read-only loopback serving of a hot pool over 4 connections with
    // default ServerOptions: reactor, protocol, render and the result cache
    // do most of the work.
    {"serve_hot", SkylineQueryType::kQuadrant, 4096, kWideDomain, true, 1,
     100'000, 1000, 50'000, 3.2e6},
    // Distinct uniform points on a 2-thread engine: point location and the
    // 67 MB cell table do all the work, no serving layer runs.
    {"engine_cold", SkylineQueryType::kQuadrant, 4096, kWideDomain, false, 1,
     500'000, 5000, 250'000, 32e6},
    // Dynamic diagram built with kAuto: the dynamic builders, the subcell
    // grid and subcell location.
    {"dynamic_engine", SkylineQueryType::kDynamic, 128, 512, false, 3, 500'000,
     5000, 250'000, 32e6},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small helpers.

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A /proc/self/status memory field ("VmRSS:", "VmHWM:") in MB.
double ProcStatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + std::strlen(field), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// The tail percentile `v` can support (>= 10 samples beyond it), capped at
/// p99.
double Tail(const std::vector<double>& v) {
  return Percentile(v, std::min(99.0, TailPercentileFor(v.size())));
}

/// Percentile p of each `window_s` slice of the schedule (by due time),
/// then the median over the slices: a stall spoils one slice instead of
/// deciding the whole run. Slices too small for p are dropped; with none
/// left this falls back to the pooled tail.
double WindowedPercentile(const OpenLoopResult& r, double p,
                          double window_s) {
  std::map<uint64_t, std::vector<double>> slices;
  const auto width = static_cast<uint64_t>(window_s * 1e9);
  for (size_t i = 0; i < r.latency_us.size(); ++i) {
    const uint64_t offset =
        r.due_ns[i] > r.start_ns ? r.due_ns[i] - r.start_ns : 0;
    slices[offset / width].push_back(r.latency_us[i]);
  }
  std::vector<double> per_slice;
  for (auto& [index, v] : slices) {
    if (p <= 50 || SamplesBeyond(v.size(), p) >= 10) {
      per_slice.push_back(Percentile(std::move(v), p));
    }
  }
  return per_slice.empty() ? Tail(r.latency_us) : Median(per_slice);
}

std::vector<Point2D> UniformPoints(size_t count, int64_t domain,
                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> coord(0, domain - 1);
  std::vector<Point2D> out(count);
  for (Point2D& p : out) p = Point2D{coord(rng), coord(rng)};
  return out;
}

std::vector<PointId> Oracle(const Workload& w, const Dataset& dataset,
                            const Point2D& q) {
  return w.type == SkylineQueryType::kDynamic
             ? skydia::DynamicSkyline(dataset, q)
             : skydia::QuadrantSkyline(dataset, q, 0);
}

uint64_t HashOf(const std::vector<PointId>& ids) {
  return HashIds(ids.data(), ids.size());
}

/// Unlabeled samples of one /metrics scrape.
std::map<std::string, double> ParseMetrics(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name.find('{') != std::string::npos) continue;
    out[name] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

/// Delta of one counter family between two scrapes; nullopt when the
/// family is absent (a deleted layer).
std::optional<double> Delta(const std::map<std::string, double>& before,
                            const std::map<std::string, double>& after,
                            const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return std::nullopt;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

skydia::StatusOr<Dataset> Generate(size_t n, int64_t domain, uint64_t seed) {
  skydia::DataGenOptions gen;
  gen.n = n;
  gen.domain_size = domain;
  gen.distribution = skydia::Distribution::kIndependent;
  gen.seed = seed;
  return skydia::GenerateDataset(gen);
}

// ---------------------------------------------------------------------------
// Result accounting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< why `correct` went false

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Wrong(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

// ---------------------------------------------------------------------------
// Fixture: generate, build, save, then load or start the server.

struct Fixture {
  std::optional<Dataset> dataset;  ///< the generated points (oracle input)
  skydia::BuildReport report;
  double setup_s = 0;
  double save_s = 0;
  double load_s = 0;
  uint64_t blob_bytes = 0;
  std::string blob_path;
  std::unique_ptr<ServableDiagram> servable;            ///< engine workloads
  std::unique_ptr<skydia::serve::SkylineServer> server;  ///< serve_hot
};

/// The diagram the workload serves, whatever holds it.
struct Target {
  const Dataset* dataset = nullptr;
  const CellDiagram* cell = nullptr;
  const SubcellDiagram* subcell = nullptr;
  const QueryEngine* engine = nullptr;
  std::shared_ptr<const skydia::serve::ServingSnapshot> pin;  // loopback
};

Target TargetOf(Fixture& f) {
  Target t;
  const ServableDiagram* sd = f.servable.get();
  if (f.server != nullptr) {
    t.pin = f.server->registry().Current();
    sd = t.pin->diagram.get();
    t.engine = &t.pin->serving().engine();
  } else {
    t.engine = &sd->engine();
  }
  t.dataset = &sd->dataset();
  t.cell = sd->cell_diagram();
  t.subcell = sd->subcell_diagram();
  return t;
}

std::unique_ptr<QueryEngine> MakeEngine(const Target& t, int threads) {
  QueryEngineOptions options;
  options.num_threads = threads;
  if (t.subcell != nullptr) {
    return std::make_unique<QueryEngine>(*t.dataset, *t.subcell, options);
  }
  return std::make_unique<QueryEngine>(*t.dataset, *t.cell,
                                       SkylineQueryType::kQuadrant, options);
}

/// One full set-up. On success `f` holds the served fixture.
skydia::Status SetUpOnce(const Workload& w, uint64_t seed, Fixture* f) {
  using Clock = std::chrono::steady_clock;
  f->server.reset();
  f->servable.reset();
  const auto t0 = Clock::now();
  auto dataset = Generate(w.n, w.domain, seed);
  if (!dataset.ok()) return dataset.status();
  f->dataset.emplace(*dataset);
  skydia::SkylineBuildOptions options;
  options.algorithm = BuildAlgorithm::kAuto;
  options.report = &f->report;
  skydia::Status saved;
  {
    spans::ScopedSpan span("core.build", 0);
    auto diagram = skydia::SkylineDiagram::Build(std::move(dataset).value(),
                                                 w.type, options);
    if (!diagram.ok()) return diagram.status();
    const auto t2 = Clock::now();
    spans::ScopedSpan save_span("core.serialize.save", 0);
    saved = diagram->cell_diagram() != nullptr
                ? skydia::SaveCellDiagram(diagram->dataset(),
                                          *diagram->cell_diagram(),
                                          f->blob_path)
                : skydia::SaveSubcellDiagram(diagram->dataset(),
                                             *diagram->subcell_diagram(),
                                             f->blob_path);
    f->save_s = Seconds(t2, Clock::now());
  }  // the built diagram is freed before the load
  if (!saved.ok()) return saved;
  struct stat st {};
  f->blob_bytes = ::stat(f->blob_path.c_str(), &st) == 0
                      ? static_cast<uint64_t>(st.st_size)
                      : 0;
  const auto t3 = Clock::now();
  {
    spans::ScopedSpan span("core.query_engine.load", 0);
    if (w.loopback) {
      f->server = std::make_unique<skydia::serve::SkylineServer>();
      if (auto s = f->server->Start(f->blob_path); !s.ok()) return s;
    } else {
      QueryEngineOptions options;
      options.num_threads = kEngineThreads;
      auto loaded = ServableDiagram::Load(f->blob_path, options);
      if (!loaded.ok()) return loaded.status();
      f->servable =
          std::make_unique<ServableDiagram>(std::move(loaded).value());
    }
  }
  const auto t4 = Clock::now();
  f->load_s = Seconds(t3, t4);
  f->setup_s = Seconds(t0, t4);
  return skydia::Status::OK();
}

// ---------------------------------------------------------------------------
// In-process reads and batches.

/// The workload's query stream, answered once on one thread: the reference
/// every later answer is compared with.
struct QueryStream {
  std::vector<Point2D> points;
  std::vector<SetId> reference_sets;
  size_t batch = 0;
  size_t num_batches() const { return points.size() / batch; }
  std::span<const Point2D> Batch(size_t i) const {
    return {points.data() + (i % num_batches()) * batch, batch};
  }
  std::span<const SetId> Expected(size_t i) const {
    return {reference_sets.data() + (i % num_batches()) * batch, batch};
  }
};

/// Single-thread reference answers of `engine` for `points`.
std::vector<SetId> ReferenceSets(const QueryEngine& engine,
                                 const std::vector<Point2D>& points) {
  std::vector<SetId> sets(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    sets[i] = engine.index().LocateSet(points[i]);
  }
  return sets;
}

struct BatchPhase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t queries = 0;
  std::vector<double> latency_us;  ///< per batch
  WallInterval wall;
  double cpu_s = 0;
};

/// Closed loop: AnswerBatch back to back for `seconds` or `max_batches`,
/// whichever ends first, each batch checked against the reference SetIds.
BatchPhase RunBatches(const QueryEngine& engine, const QueryStream& s,
                      double seconds, uint64_t max_batches = UINT64_MAX) {
  BatchPhase r;
  std::vector<SetId> out;
  const double cpu0 = ThreadCpuSeconds();
  const uint64_t end = spans::NowNs() + static_cast<uint64_t>(seconds * 1e9);
  r.wall.Start();
  for (uint64_t i = 0; i < max_batches && spans::NowNs() < end; ++i) {
    const uint64_t start = spans::NowNs();
    {
      spans::ScopedSpan span("core.query_engine.batch", i);
      engine.AnswerBatch(s.Batch(i), &out);
    }
    const uint64_t done = spans::NowNs();
    const auto expected = s.Expected(i);
    ++r.attempted;
    if (!std::equal(out.begin(), out.end(), expected.begin(),
                    expected.end())) {
      ++r.failed;
      r.latency_us.push_back(kFailedLatencyUs);
      continue;
    }
    r.queries += s.batch;
    r.latency_us.push_back(static_cast<double>(done - start) / 1e3);
  }
  r.wall.Stop();
  r.cpu_s = ThreadCpuSeconds() - cpu0;
  return r;
}

/// Open loop on one embedder thread: read i (an AnswerBatch of `batch`
/// queries) is due at i * batch / qps; each is checked against the
/// reference and timed from its due time.
OpenLoopResult RunInProcessReads(const QueryEngine& engine,
                                 const QueryStream& s, size_t batch,
                                 double qps, double seconds) {
  OpenLoopResult r;
  const double interval_ns = 1e9 * static_cast<double>(batch) / qps;
  const size_t reads_in_stream = s.points.size() / batch;
  std::vector<SetId> out;
  const double cpu0 = ThreadCpuSeconds();
  const uint64_t t0 = spans::NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  r.start_ns = t0;
  uint64_t last = t0;
  for (uint64_t i = 0;; ++i) {
    const uint64_t due =
        t0 + static_cast<uint64_t>(static_cast<double>(i) * interval_ns);
    if (due >= end) break;
    uint64_t now = spans::NowNs();
    while (now < due) now = spans::NowNs();
    const size_t first = (i % reads_in_stream) * batch;
    {
      spans::ScopedSpan span("core.query_engine.batch", i);
      engine.AnswerBatch({s.points.data() + first, batch}, &out);
    }
    last = spans::NowNs();
    ++r.attempted;
    r.lateness_us.push_back(static_cast<double>(now - due) / 1e3);
    r.due_ns.push_back(due);
    if (!std::equal(out.begin(), out.end(),
                    s.reference_sets.begin() + static_cast<ptrdiff_t>(first))) {
      ++r.failed;
      ++r.wrong;
      r.latency_us.push_back(kFailedLatencyUs);
      continue;
    }
    ++r.answered;
    r.latency_us.push_back(static_cast<double>(last - due) / 1e3);
  }
  r.wall_seconds = static_cast<double>(last - t0) / 1e9;
  r.client_cpu_seconds = ThreadCpuSeconds() - cpu0;
  return r;
}

// ---------------------------------------------------------------------------
// Write path: a closed-loop loopback writer against a server over the write
// fixture (end-to-end numbers) and an in-process MutationPipeline probe
// (per-layer numbers of the traced run).

struct WriteResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t acked = 0;
  std::vector<double> ack_ms;
  std::vector<double> visible_ms;
  double wall_s = 0;
  // In-process probe (per-layer).
  std::vector<double> apply_ms;
  double publish_ms = 0;
  double cells_per_mutation = 0;
  double mutations_per_publish = 0;
  double rejected = 0;
  double installs = 0;
};

/// Visibility of each acked write: the first time the registry's
/// generation (polled into `seen` as (time, generation) changes) reached
/// the write's ack bound, minus the write's send time.
void FillVisibility(const std::vector<std::pair<uint64_t, uint64_t>>& seen,
                    const std::vector<WriteRecord>& writes,
                    std::vector<double>* visible_ms) {
  // first_at[g]: earliest time a generation >= g was observed.
  std::map<uint64_t, uint64_t> first_at;
  uint64_t max_gen = 0;
  for (const auto& [t, gen] : seen) {
    if (gen > max_gen) {
      for (uint64_t g = max_gen + 1; g <= gen; ++g) first_at[g] = t;
      max_gen = gen;
    }
  }
  for (const WriteRecord& w : writes) {
    const auto it = first_at.find(w.bound);
    if (!w.ok || it == first_at.end()) continue;
    const uint64_t t = std::max(it->second, w.send_ns);
    visible_ms->push_back(static_cast<double>(t - w.send_ns) / 1e6);
  }
}

/// The write fixture: the workload's own diagram for dynamic workloads, an
/// n=1024 quadrant diagram of the same seed for quadrant workloads (seeding
/// an n=4096 shadow costs seconds per run). Wrapped for serving at zero
/// copy.
struct WriteFixture {
  std::shared_ptr<skydia::SkylineDiagram> diagram;
  int64_t domain = 0;

  ServableDiagram Wrap() const {
    auto ds = std::shared_ptr<const Dataset>(diagram, &diagram->dataset());
    if (diagram->subcell_diagram() != nullptr) {
      return ServableDiagram::Wrap(
          ds, std::shared_ptr<const SubcellDiagram>(
                  diagram, diagram->subcell_diagram()));
    }
    return ServableDiagram::Wrap(
        ds,
        std::shared_ptr<const CellDiagram>(diagram, diagram->cell_diagram()),
        SkylineQueryType::kQuadrant);
  }
};

skydia::StatusOr<WriteFixture> BuildWriteFixture(const Workload& w,
                                                 uint64_t seed) {
  const bool dynamic = w.type == SkylineQueryType::kDynamic;
  WriteFixture f;
  f.domain = dynamic ? w.domain : kWideDomain;
  auto dataset = Generate(dynamic ? w.n : 1024, f.domain, seed);
  if (!dataset.ok()) return dataset.status();
  auto diagram = skydia::SkylineDiagram::Build(*std::move(dataset), w.type);
  if (!diagram.ok()) return diagram.status();
  f.diagram =
      std::make_shared<skydia::SkylineDiagram>(std::move(diagram).value());
  return f;
}

/// End-to-end write numbers: a server over the write fixture (25 ms
/// mutation window) and one closed-loop loopback writer. The writes run in
/// short segments spread over the run — between ladder rungs — so their
/// medians average over the host's slow swings instead of one stretch of
/// it. Visibility is the first time the registry's generation reaches a
/// write's ack bound, polled every 20 us while a segment runs.
class WriteProbe {
 public:
  static skydia::StatusOr<std::unique_ptr<WriteProbe>> Start(
      const Workload& w, uint64_t seed) {
    auto fixture = BuildWriteFixture(w, seed);
    if (!fixture.ok()) return fixture.status();
    auto probe = std::unique_ptr<WriteProbe>(new WriteProbe());
    probe->fixture_ = *std::move(fixture);
    skydia::serve::ServerOptions options;
    options.mutation_window_ms = 25;
    probe->server_ = std::make_unique<skydia::serve::SkylineServer>(options);
    if (auto s = probe->server_->Start(probe->fixture_.Wrap(), ""); !s.ok()) {
      return s;
    }
    // Seed the shadow diagram before anything is timed.
    skydia::serve::MutationPipeline* pipeline = probe->server_->mutations();
    if (auto ack = pipeline->Insert({0, 0}, std::nullopt); ack.ok()) {
      (void)pipeline->Delete(ack->point);
    }
    pipeline->Flush();
    probe->writer_ = std::make_unique<LoopbackWriter>(
        probe->server_->port(), probe->fixture_.domain, seed);
    if (!probe->writer_->connected()) {
      return skydia::Status::Internal("write probe: cannot connect");
    }
    return probe;
  }

  /// Writes back to back for `seconds`, then waits (at most 200 ms) until
  /// the last acked write is visible. False when the connection was lost.
  bool Segment(double seconds) {
    skydia::serve::SnapshotRegistry& registry = server_->registry();
    std::atomic<bool> stop{false};
    std::thread poller([&] {
      uint64_t last = registry.generation();
      seen_.emplace_back(spans::NowNs(), last);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t g = registry.generation();
        if (g != last) {
          seen_.emplace_back(spans::NowNs(), g);
          last = g;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
    bool healthy = true;
    uint64_t last_bound = 0;
    const uint64_t start = spans::NowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    while (healthy && spans::NowNs() < end) {
      WriteRecord record;
      healthy = writer_->Write(&record);
      if (!healthy) break;
      if (record.ok) last_bound = record.bound;
      records_.push_back(record);
    }
    busy_s_ += static_cast<double>(spans::NowNs() - start) / 1e9;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (registry.generation() < last_bound &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    stop.store(true);
    poller.join();
    return healthy;
  }

  double busy_seconds() const { return busy_s_; }
  size_t writes() const { return records_.size(); }

  WriteResult Result() const {
    WriteResult r;
    for (const WriteRecord& rec : records_) {
      ++r.attempted;
      if (!rec.ok) {
        ++r.failed;
        continue;
      }
      ++r.acked;
      r.ack_ms.push_back(static_cast<double>(rec.ack_ns - rec.send_ns) / 1e6);
    }
    r.wall_s = busy_s_;
    FillVisibility(seen_, records_, &r.visible_ms);
    return r;
  }

 private:
  WriteProbe() = default;

  WriteFixture fixture_;
  std::unique_ptr<skydia::serve::SkylineServer> server_;
  std::unique_ptr<LoopbackWriter> writer_;  // closes before the server
  std::vector<WriteRecord> records_;
  std::vector<std::pair<uint64_t, uint64_t>> seen_;
  double busy_s_ = 0;
};

/// The in-process write probe of the traced run: Insert/Delete/Flush on a
/// MutationPipeline over a registry seeded with the write fixture, plus the
/// skydia_mutation_* counter deltas.
skydia::StatusOr<WriteResult> RunWriteProbe(const Workload& w, uint64_t seed,
                                            double seconds) {
  auto fixture = BuildWriteFixture(w, seed);
  if (!fixture.ok()) return fixture.status();
  skydia::serve::SnapshotRegistry registry;
  registry.Install(fixture->Wrap(), "");
  skydia::serve::ServerMetrics metrics;
  skydia::serve::MutationPipelineOptions options;
  options.window_ms = 25;
  skydia::serve::MutationPipeline pipeline(&registry, &metrics, options);
  std::mt19937_64 rng(seed ^ 0xA0761D6478BD642Full);
  std::uniform_int_distribution<int64_t> coord(0, fixture->domain - 1);
  // Warm-up pair: seeds the shadow diagram outside the measured window.
  if (auto ack = pipeline.Insert({coord(rng), coord(rng)}, std::nullopt);
      ack.ok()) {
    (void)pipeline.Delete(ack->point);
  }
  pipeline.Flush();
  const uint64_t publishes0 = metrics.mutation_publish_count.load();
  const uint64_t publish_ns0 = metrics.mutation_publish_sum_ns.load();
  const uint64_t cells0 = metrics.mutation_cells_recomputed.load();
  const uint64_t failures0 = metrics.mutation_failures.load();
  const uint64_t generation0 = registry.generation();
  WriteResult r;
  const uint64_t end = spans::NowNs() + static_cast<uint64_t>(seconds * 1e9);
  int64_t live = -1;
  for (uint64_t op = 0; spans::NowNs() < end; ++op) {
    const bool insert = live < 0;
    const uint64_t start = spans::NowNs();
    spans::ScopedSpan span(insert ? "serve.mutation_pipeline.insert"
                                  : "serve.mutation_pipeline.delete",
                           op);
    auto ack = insert ? pipeline.Insert({coord(rng), coord(rng)}, std::nullopt)
                      : pipeline.Delete(live);
    r.apply_ms.push_back(static_cast<double>(spans::NowNs() - start) / 1e6);
    ++r.attempted;
    if (!ack.ok()) {
      ++r.failed;
      continue;
    }
    live = insert ? static_cast<int64_t>(ack->point) : -1;
  }
  {
    spans::ScopedSpan span("serve.mutation_pipeline.flush", 0);
    pipeline.Flush();
  }
  if (live >= 0) (void)pipeline.Delete(live);
  pipeline.Stop();
  const double publishes =
      static_cast<double>(metrics.mutation_publish_count.load() - publishes0);
  const double mutations = static_cast<double>(r.attempted);
  r.publish_ms =
      publishes > 0
          ? static_cast<double>(metrics.mutation_publish_sum_ns.load() -
                                publish_ns0) /
                publishes / 1e6
          : 0;
  r.cells_per_mutation =
      mutations > 0
          ? static_cast<double>(metrics.mutation_cells_recomputed.load() -
                                cells0) /
                mutations
          : 0;
  r.mutations_per_publish = publishes > 0 ? mutations / publishes : 0;
  r.rejected =
      static_cast<double>(metrics.mutation_failures.load() - failures0);
  r.installs = static_cast<double>(registry.generation() - generation0);
  return r;
}

// ---------------------------------------------------------------------------
// The serving ladder's in-process rungs (traced run).

/// Per-line cost of parse + answer + render with no sockets, batches of 64
/// request lines against `engine`.
struct InProcessCosts {
  double parse_ns = 0;
  double answer_ns = 0;
  double render_ns = 0;
  double reply_bytes = 0;
};

InProcessCosts RunInProcessRung(const QueryEngine& engine,
                                const std::vector<Point2D>& queries,
                                double seconds) {
  constexpr size_t kLines = 64;
  std::vector<std::string> lines;
  for (size_t i = 0; i < queries.size() && i < 65536; ++i) {
    lines.push_back("{\"q\":[" + std::to_string(queries[i].x) + "," +
                    std::to_string(queries[i].y) + "],\"id\":" +
                    std::to_string(i) + "}");
  }
  InProcessCosts c;
  uint64_t parse_ns = 0, answer_ns = 0, render_ns = 0, total_lines = 0,
           bytes = 0;
  std::vector<Point2D> batch;
  std::vector<std::optional<int64_t>> ids;
  std::vector<SetId> sets;
  std::string out;
  const uint64_t end = spans::NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t b = 0; spans::NowNs() < end; ++b) {
    spans::ScopedSpan rung("serve.inprocess.batch", b);
    const size_t first = (b * kLines) % (lines.size() - kLines + 1);
    batch.clear();
    ids.clear();
    const uint64_t t0 = spans::NowNs();
    {
      spans::ScopedSpan span("serve.protocol.parse", b);
      for (size_t i = 0; i < kLines; ++i) {
        auto req = skydia::serve::ParseRequest(lines[first + i]);
        if (!req.ok()) continue;
        batch.push_back(req->query().q);
        ids.push_back(req->id);
      }
    }
    const uint64_t t1 = spans::NowNs();
    {
      spans::ScopedSpan span("core.query_engine.batch", b);
      engine.AnswerBatch(batch, &sets);
    }
    const uint64_t t2 = spans::NowNs();
    out.clear();
    {
      spans::ScopedSpan span("serve.protocol.render", b);
      for (size_t i = 0; i < sets.size(); ++i) {
        const std::string array =
            skydia::serve::RenderIdsArray(engine.Get(sets[i]));
        skydia::serve::AppendQueryReply(ids[i], 1, "ids", array, &out);
      }
    }
    const uint64_t t3 = spans::NowNs();
    parse_ns += t1 - t0;
    answer_ns += t2 - t1;
    render_ns += t3 - t2;
    bytes += out.size();
    total_lines += sets.size();
  }
  if (total_lines > 0) {
    const double n = static_cast<double>(total_lines);
    c.parse_ns = static_cast<double>(parse_ns) / n;
    c.answer_ns = static_cast<double>(answer_ns) / n;
    c.render_ns = static_cast<double>(render_ns) / n;
    c.reply_bytes = static_cast<double>(bytes) / n;
  }
  return c;
}

/// Single-thread LocateSet cost per query over the workload's query
/// stream; every located set is checked against the stream's reference
/// (mismatches go to `wrong`).
double LocateNs(const QueryEngine& engine, const QueryStream& s,
                double seconds, uint64_t* wrong) {
  const skydia::PointLocationIndex& index = engine.index();
  const size_t n = s.points.size();
  uint64_t done = 0;
  WallInterval wall;
  wall.Start();
  const uint64_t end = spans::NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t chunk = 0; spans::NowNs() < end; ++chunk) {
    spans::ScopedSpan span("core.point_location.locate", chunk);
    const size_t first = (chunk * 4096) % n;
    for (size_t i = 0; i < 4096; ++i) {
      const size_t k = (first + i) % n;
      if (index.LocateSet(s.points[k]) != s.reference_sets[k]) ++*wrong;
    }
    done += 4096;
  }
  wall.Stop();
  return 1e9 * wall.WallSeconds() / static_cast<double>(done);
}

/// Closed-loop pipelined replies over 4 connections (2 threads x 2
/// connections, 32 requests in flight each); wall nanoseconds per reply.
double LoopbackNsPerReply(int port, const std::vector<Point2D>& pool,
                          const std::vector<uint64_t>* expected,
                          double seconds, uint64_t seed, uint64_t* wrong) {
  // An open loop far beyond capacity degenerates into a closed loop limited
  // by the pipeline depth; count what came back.
  OpenLoopConfig cfg;
  cfg.port = port;
  cfg.rate = 1e8;
  cfg.seconds = seconds;
  cfg.pool = &pool;
  cfg.expected = expected;
  cfg.seed = seed;
  cfg.max_outstanding = 32;
  const OpenLoopResult r = RunOpenLoop(cfg);
  *wrong += r.wrong;
  return r.answered > 0 ? 1e9 * r.wall_seconds / static_cast<double>(r.answered)
                        : 0;
}

// ---------------------------------------------------------------------------
// Output.

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(const Outcome& o) {
  std::string out = "{\"correct\":";
  out += o.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(std::max<uint64_t>(1, o.attempted));
  out += ",\"failed\":" + std::to_string(o.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + o.metrics[i].name + "\":{\"value\":" +
           JsonNumber(o.metrics[i].value) + ",\"unit\":\"" +
           o.metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintProvenance(const Workload& w, uint64_t seed, double seconds,
                     bool trace) {
  std::printf(
      "{\"provenance\":{\"commit\":\"%s\",\"source_sha256\":\"%s\","
      "\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"params\":{\"semantics\":\"%s\",\"n\":%zu,\"domain\":%lld,"
      "\"distribution\":\"independent\",\"algorithm\":\"auto\","
      "\"setup_reps\":%d,\"reads\":\"%s\",\"reference_qps\":%g,"
      "\"read_limit_us\":%g,\"engine_threads\":%d,\"batch\":%zu,"
      "\"write_window_ms\":25}}}\n",
      SKYBENCH_COMMIT, SKYBENCH_SOURCE_DIGEST,
      std::thread::hardware_concurrency(), SKYBENCH_BUILD_TYPE,
      SKYBENCH_COMPILER, w.name, static_cast<unsigned long long>(seed),
      seconds, trace ? 1 : 0, skydia::SkylineQueryTypeName(w.type), w.n,
      static_cast<long long>(w.domain), w.setup_reps,
      w.loopback ? "loopback, 1 query, 4 connections, 4096 hot points"
                 : "in-process AnswerBatch of 64 uniform points",
      w.reference_qps, w.read_limit_us,
      w.loopback ? 1 : kEngineThreads, kBatch);
  std::fflush(stdout);
}

/// Unit of a per-layer metric, from its name's suffix.
const char* LayerUnit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ns") || ends("ns_per_query")) return "ns";
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_qps")) return "1/s";
  if (ends("_mb")) return "MB";
  if (ends("_bytes")) return "bytes";
  if (ends("_ratio")) return "ratio";
  if (ends("speedup")) return "x";
  return "count";
}

// ---------------------------------------------------------------------------
// The run.

class Runner {
 public:
  Runner(const Workload& w, uint64_t seed, double seconds, bool trace)
      : w_(w), seed_(seed), seconds_(seconds), trace_(trace) {}

  int Run();

 private:
  bool SetUp();
  void PrepareQueries();
  void MeasureReads();
  OpenLoopResult Reads(double qps, double seconds);
  bool LadderRung(double qps, double rung_s);
  bool LadderProbe(double qps, double rung_s);
  void MeasureEngine();
  void WriteSegment();
  void MeasureWrites();
  void RunLayerProbes();
  void ReportLayers();
  void AddFailures(uint64_t attempted, uint64_t failed) {
    out_.attempted += attempted;
    out_.failed += failed;
  }
  void CountWrong(uint64_t wrong, const char* where) {
    if (wrong > 0) {
      out_.Wrong(std::to_string(wrong) + " wrong answers in " + where);
    }
  }

  const Workload& w_;
  uint64_t seed_;
  double seconds_;
  bool trace_;
  Outcome out_;
  Fixture fixture_;
  std::vector<double> setup_times_;
  double rss_after_setup_mb_ = 0;
  std::vector<Point2D> pool_;      ///< serve_hot's hot points
  std::vector<uint64_t> expected_;  ///< oracle answer hash per hot point
  QueryStream stream_;
  // End-to-end numbers.
  double read_max_qps_ = 0;
  double engine_qps_ = 0;
  Quartiles engine_window_qps_;  ///< spread of the engine windows
  double engine_batch_p99_us_ = 0;
  std::unique_ptr<WriteProbe> write_probe_;  ///< untraced run's writes
  WriteResult write_;
  // Per-layer numbers (traced run).
  std::map<std::string, double> layers_;
};

bool Runner::SetUp() {
  ::mkdir(kOutDir, 0755);
  fixture_.blob_path = std::string(kOutDir) + "/" + w_.name + "-" +
                       std::to_string(seed_) + ".skd";
  for (int rep = 0; rep < w_.setup_reps; ++rep) {
    const skydia::Status s = SetUpOnce(w_, seed_, &fixture_);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      std::remove(fixture_.blob_path.c_str());
      return false;
    }
    setup_times_.push_back(fixture_.setup_s);
  }
  std::remove(fixture_.blob_path.c_str());
  // Resident memory with the fixture loaded and served, before anything
  // else runs: what the set-up leaves behind.
  rss_after_setup_mb_ = ProcStatusMb("VmRSS:");
  return true;
}

/// Builds the query stream and its reference answers, and checks a seeded
/// sample of 512 reference answers (plus, for serve_hot, every hot point)
/// against the oracle. Dynamic queries on a grid or bisector line carry the
/// interior-adjacent convention (point_location.h) and are skipped.
void Runner::PrepareQueries() {
  const Dataset& ds = *fixture_.dataset;
  const Target target = TargetOf(fixture_);
  stream_.batch = kBatch;
  if (w_.loopback) {
    pool_ = UniformPoints(kHotPool, w_.domain, seed_ * 31 + 1);
    expected_.resize(pool_.size());
    for (size_t i = 0; i < pool_.size(); ++i) {
      expected_[i] = HashOf(Oracle(w_, ds, pool_[i]));
    }
    // The engine metrics draw their batches from the hot pool.
    std::mt19937_64 rng(seed_ * 31 + 2);
    stream_.points.resize(16 * kBatch);
    for (Point2D& p : stream_.points) p = pool_[rng() % pool_.size()];
  } else {
    stream_.points = UniformPoints(64 * kBatch, w_.domain, seed_ * 31 + 2);
  }
  stream_.reference_sets = ReferenceSets(*target.engine, stream_.points);
  std::mt19937_64 rng(seed_ * 31 + 3);
  uint64_t wrong = 0;
  uint64_t checked = 0;
  for (int k = 0; k < 512; ++k) {
    const size_t i = rng() % stream_.points.size();
    const Point2D& q = stream_.points[i];
    if (w_.type != SkylineQueryType::kQuadrant &&
        target.engine->index().OnBoundary(q)) {
      continue;
    }
    ++checked;
    const auto got = target.engine->Get(stream_.reference_sets[i]);
    const auto want = Oracle(w_, ds, q);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      ++wrong;
    }
  }
  AddFailures(checked, wrong);
  CountWrong(wrong, "the oracle sample");
}

OpenLoopResult Runner::Reads(double qps, double seconds) {
  if (!w_.loopback) {
    return RunInProcessReads(*TargetOf(fixture_).engine, stream_, kReadBatch,
                             qps, seconds);
  }
  OpenLoopConfig cfg;
  cfg.port = fixture_.server->port();
  cfg.rate = qps;
  cfg.seconds = seconds;
  cfg.pool = &pool_;
  cfg.expected = &expected_;
  cfg.trace = spans::Enabled();
  cfg.seed = seed_ + static_cast<uint64_t>(qps);
  return RunOpenLoop(cfg);
}

/// A rung fails only when two tries in a row miss the limit: a transient
/// hiccup fails one try, a growing backlog fails both.
bool Runner::LadderRung(double qps, double rung_s) {
  const bool pass = LadderProbe(qps, rung_s) || LadderProbe(qps, rung_s);
  WriteSegment();
  return pass;
}

bool Runner::LadderProbe(double qps, double rung_s) {
  const OpenLoopResult r = Reads(qps, rung_s);
  CountWrong(r.wrong + r.non_monotone_gen, "ladder reads");
  const double tail = WindowedPercentile(r, 99, rung_s / 5);
  const bool pass = r.failed == 0 && tail <= w_.read_limit_us;
  std::fprintf(stderr, "ladder rung %.0f/s: p99 %.1f us, %llu failed -> %s\n",
               qps, tail, static_cast<unsigned long long>(r.failed),
               pass ? "pass" : "fail");
  return pass;
}

/// Warm-up, then the offered-rate ladder (untraced run) or the reference
/// point measured untraced and then traced (traced run, for the read
/// latencies and the tracing overhead).
void Runner::MeasureReads() {
  const OpenLoopResult warm = Reads(w_.reference_qps, 0.05 * seconds_);
  AddFailures(warm.attempted, warm.failed);
  CountWrong(warm.wrong + warm.non_monotone_gen, "warm-up reads");
  if (!trace_) {
    auto probe = WriteProbe::Start(w_, seed_);
    if (probe.ok()) {
      write_probe_ = std::move(probe).value();
    } else {
      out_.Wrong("write probe: " + probe.status().ToString());
    }
    const double rung_s = 0.03 * seconds_;
    read_max_qps_ = SearchLadder(GeometricLadder(w_.ladder_lo_qps,
                                                 w_.ladder_hi_qps, 1.5),
                                 1.05, [&](double qps) {
                                   return LadderRung(qps, rung_s);
                                 })
                        .max_passing;
    return;
  }
  const double ref_s = 0.1 * seconds_;
  const OpenLoopResult ref = Reads(w_.reference_qps, ref_s);
  AddFailures(ref.attempted, ref.failed);
  CountWrong(ref.wrong + ref.non_monotone_gen, "reference reads");
  for (const auto& [code, n] : ref.error_codes) {
    std::fprintf(stderr, "error replies: %s x%llu\n", code.c_str(),
                 static_cast<unsigned long long>(n));
  }
  // Windows of at least 2000 reads, so each has a p99 with 20 beyond it.
  const double reads_per_s =
      w_.reference_qps / static_cast<double>(w_.loopback ? 1 : kReadBatch);
  const double window_s = std::max(0.1, 2000.0 / reads_per_s);
  const double p50 = WindowedPercentile(ref, 50, window_s);
  layers_["read_p50_us"] = p50;
  layers_["read_p99_us"] = WindowedPercentile(ref, 99, window_s);
  layers_["bench.client.lateness_p99_us"] = Percentile(ref.lateness_us, 99);
  layers_["bench.client.cpu_s"] = ref.client_cpu_seconds;
  spans::Enable(true);
  const OpenLoopResult traced = Reads(w_.reference_qps, ref_s);
  spans::Enable(false);
  CountWrong(traced.wrong + traced.non_monotone_gen, "traced reads");
  layers_["bench.trace.read_p50_overhead_us"] =
      WindowedPercentile(traced, 50, window_s) - p50;
}

/// Closed-loop AnswerBatch on the workload's engine: a warm-up of 50
/// batches, then kEngineWindows windows of kWindowBatches batches.
/// engine_qps is the median window rate on the wall clock,
/// engine_batch_p99_us the p99 over every batch.
void Runner::MeasureEngine() {
  const Target target = TargetOf(fixture_);
  const BatchPhase warm = RunBatches(*target.engine, stream_, 1e9, 50);
  CountWrong(warm.failed, "warm-up batches");
  const skydia::QueryEngineStats before = target.engine->Stats();
  std::vector<double> window_qps;
  std::vector<double> latencies;
  for (size_t i = 0; i < kEngineWindows; ++i) {
    const BatchPhase b =
        RunBatches(*target.engine, stream_, 1e9, kWindowBatches);
    AddFailures(b.attempted, b.failed);
    CountWrong(b.failed, "engine batches");
    const double qps = b.wall.Rate(b.queries);
    if (!IsWallClockRate(qps, b.queries, b.wall.WallSeconds(), b.cpu_s)) {
      out_.Wrong("engine_qps is not a wall-clock rate");
    }
    window_qps.push_back(qps);
    latencies.insert(latencies.end(), b.latency_us.begin(),
                     b.latency_us.end());
  }
  const skydia::QueryEngineStats after = target.engine->Stats();
  engine_window_qps_ = ComputeQuartiles(window_qps);
  engine_qps_ = engine_window_qps_.median;
  engine_batch_p99_us_ = Tail(latencies);
  const double served =
      static_cast<double>(after.queries_served - before.queries_served);
  layers_["core.query_engine.memo_hit_ratio"] =
      served > 0 ? static_cast<double>(after.memo_hits - before.memo_hits) /
                       served
                 : 0;
  std::fprintf(stderr, "engine: %.3f Mq/s (median of %zu windows), p99 %.1f us\n",
               engine_qps_ / 1e6, window_qps.size(), engine_batch_p99_us_);
}

/// One write segment of the untraced run, while the write budget (a
/// quarter of the run) lasts.
void Runner::WriteSegment() {
  if (write_probe_ == nullptr ||
      write_probe_->busy_seconds() >= kWriteShare * seconds_) {
    return;
  }
  if (!write_probe_->Segment(kWriteSegmentShare * seconds_)) {
    out_.Wrong("the write probe's connection was lost");
    write_probe_.reset();
  }
}

void Runner::MeasureWrites() {
  if (!trace_) {
    // Finish the write budget, and keep going (up to twice the budget)
    // until 60 writes leave ten beyond the reported p75.
    while (write_probe_ != nullptr &&
           (write_probe_->busy_seconds() < kWriteShare * seconds_ ||
            (write_probe_->writes() < 60 &&
             write_probe_->busy_seconds() < 2 * kWriteShare * seconds_))) {
      if (!write_probe_->Segment(kWriteSegmentShare * seconds_)) {
        out_.Wrong("the write probe's connection was lost");
        write_probe_.reset();
      }
    }
    if (write_probe_ != nullptr) {
      write_ = write_probe_->Result();
      AddFailures(write_.attempted, write_.failed);
      write_probe_.reset();
    }
    return;
  }
  auto probe = RunWriteProbe(w_, seed_, 0.05 * seconds_);
  if (!probe.ok()) {
    out_.Wrong("write probe: " + probe.status().ToString());
    return;
  }
  const WriteResult& p = *probe;
  AddFailures(p.attempted, p.failed);
  layers_["serve.mutation_pipeline.apply_ms"] = Median(p.apply_ms);
  layers_["serve.mutation_pipeline.publish_ms"] = p.publish_ms;
  layers_["serve.mutation_pipeline.cells_per_mutation"] = p.cells_per_mutation;
  layers_["serve.mutation_pipeline.mutations_per_publish"] =
      p.mutations_per_publish;
  layers_["serve.mutation_pipeline.rejected"] = p.rejected;
  layers_["serve.snapshot_registry.installs"] = p.installs;
}

/// The traced run's layer probes: the build report of the last set-up, then
/// the serving ladder — locate, engine batch, parse + answer + render with
/// no sockets, loopback — each timed from its own public calls.
void Runner::RunLayerProbes() {
  spans::Enable(true);
  Target target = TargetOf(fixture_);
  const std::vector<Point2D>& queries = stream_.points;
  const double probe_s = 0.04 * seconds_;

  const skydia::BuildReport& rep = fixture_.report;
  double grid = 0;
  double freeze = 0;
  for (const auto& phase : rep.phases) {
    if (phase.name == "grid") grid += phase.seconds;
    if (phase.name == "freeze") freeze += phase.seconds;
  }
  layers_["core.build.total_s"] = rep.total_seconds;
  layers_["core.build.grid_s"] = grid;
  layers_["core.build.construct_s"] = rep.total_seconds - grid - freeze;
  layers_["core.build.freeze_s"] = freeze;
  layers_["core.build.cells"] = static_cast<double>(rep.num_cells);
  layers_["core.build.distinct_sets"] =
      static_cast<double>(rep.num_distinct_sets);
  layers_["core.build.arena_bytes"] = static_cast<double>(rep.arena_bytes);
  layers_["core.serialize.save_s"] = fixture_.save_s;
  layers_["core.serialize.blob_bytes"] =
      static_cast<double>(fixture_.blob_bytes);
  layers_["core.query_engine.load_s"] = fixture_.load_s;

  // Rung 1: point location, one thread.
  auto one = MakeEngine(target, 1);
  auto two = MakeEngine(target, 2);
  uint64_t locate_wrong = 0;
  const double locate_ns = LocateNs(*one, stream_, probe_s, &locate_wrong);
  CountWrong(locate_wrong, "the locate rung");
  layers_["core.point_location.locate_ns"] = locate_ns;

  // Rung 2: engine batches, 1 vs 2 threads on the wall clock. The bench's
  // engines share the workload's diagram, so its reference SetIds hold.
  const BatchPhase b1 = RunBatches(*one, stream_, probe_s);
  const BatchPhase b2 = RunBatches(*two, stream_, probe_s);
  CountWrong(b1.failed + b2.failed, "layer-probe batches");
  const double qps1 = b1.wall.Rate(b1.queries);
  const double qps2 = b2.wall.Rate(b2.queries);
  layers_["core.query_engine.batch_us"] = Median(b2.latency_us);
  layers_["core.query_engine.ns_per_query"] = qps2 > 0 ? 1e9 / qps2 : 0;
  layers_["core.query_engine.speedup"] = qps1 > 0 ? qps2 / qps1 : 0;

  // Rung 3: parse + answer + render, no sockets.
  const InProcessCosts c = RunInProcessRung(*one, queries, probe_s);
  layers_["serve.protocol.parse_ns"] = c.parse_ns;
  layers_["serve.protocol.render_ns"] = c.render_ns;
  layers_["serve.protocol.reply_bytes"] = c.reply_bytes;

  // Rung 4: the loopback reactor. Engine workloads start a default server
  // over the same diagram for it.
  std::unique_ptr<skydia::serve::SkylineServer> own_server;
  skydia::serve::SkylineServer* server = fixture_.server.get();
  std::vector<Point2D> pool = pool_;
  const std::vector<uint64_t>* expected = &expected_;
  if (server == nullptr) {
    own_server = std::make_unique<skydia::serve::SkylineServer>();
    // No-op deleters: the fixture owns the diagram and outlives the server.
    auto ds = std::shared_ptr<const Dataset>(target.dataset,
                                             [](const Dataset*) {});
    ServableDiagram wrapped =
        target.subcell != nullptr
            ? ServableDiagram::Wrap(ds, std::shared_ptr<const SubcellDiagram>(
                                            target.subcell,
                                            [](const SubcellDiagram*) {}))
            : ServableDiagram::Wrap(ds,
                                    std::shared_ptr<const CellDiagram>(
                                        target.cell, [](const CellDiagram*) {}),
                                    SkylineQueryType::kQuadrant);
    if (auto st = own_server->Start(std::move(wrapped), ""); !st.ok()) {
      out_.Wrong("loopback rung server: " + st.ToString());
      spans::Enable(false);
      return;
    }
    server = own_server.get();
    pool.assign(queries.begin(),
                queries.begin() + std::min<size_t>(4096, queries.size()));
    expected = nullptr;  // these answers are checked on the engine rungs
  }
  const auto before = ParseMetrics(server->RenderMetrics());
  uint64_t wrong = 0;
  const double loopback_ns = LoopbackNsPerReply(server->port(), pool, expected,
                                                probe_s, seed_, &wrong);
  CountWrong(wrong, "the loopback rung");
  const auto after = ParseMetrics(server->RenderMetrics());
  own_server.reset();
  const auto d = [&](const char* name) { return Delta(before, after, name); };
  const auto hits = d("skydia_cache_hits_total");
  const auto misses = d("skydia_cache_misses_total");
  if (hits && misses && *hits + *misses > 0) {
    layers_["serve.result_cache.hit_ratio"] = *hits / (*hits + *misses);
  }
  if (const auto evictions = d("skydia_cache_evictions_total")) {
    layers_["serve.result_cache.evictions"] = *evictions;
  }
  const auto requests = d("skydia_requests_total");
  const auto dur_sum = d("skydia_request_duration_seconds_sum");
  const auto dur_count = d("skydia_request_duration_seconds_count");
  if (requests && dur_sum && *requests > 0) {
    const double reply_ns = *dur_sum * 1e9 / *requests;
    layers_["serve.server.reply_ns"] = reply_ns;
    layers_["serve.server.outside_ns"] =
        reply_ns - c.parse_ns - locate_ns - c.render_ns;
    if (dur_count && *dur_count > 0) {
      layers_["serve.server.lines_per_batch"] = *requests / *dur_count;
    }
  }
  const auto inline_batches = d("skydia_inline_batches_total");
  const auto worker_batches = d("skydia_worker_batches_total");
  if (inline_batches && worker_batches &&
      *inline_batches + *worker_batches > 0) {
    layers_["serve.server.inline_batch_ratio"] =
        *inline_batches / (*inline_batches + *worker_batches);
  }
  const auto loop_sum = d("skydia_reactor_loop_ns_sum");
  const auto loop_count = d("skydia_reactor_loop_ns_count");
  if (loop_sum && loop_count && *loop_count > 0) {
    layers_["serve.server.loop_lag_us"] = *loop_sum / *loop_count / 1e3;
  }
  layers_["ladder.locate_ns"] = locate_ns;
  layers_["ladder.engine_ns"] = qps1 > 0 ? 1e9 / qps1 : 0;
  layers_["ladder.inprocess_ns"] = c.parse_ns + c.answer_ns + c.render_ns;
  layers_["ladder.loopback_ns"] = loopback_ns;
  spans::Enable(false);
}

/// Writes the span file and the layer report, and adds the per-layer
/// metrics to the result.
void Runner::ReportLayers() {
  layers_["engine_qps"] = engine_qps_;
  layers_["engine_batch_p99_us"] = engine_batch_p99_us_;
  layers_["bench.trace.spans"] = static_cast<double>(spans::Count());
  const std::string stem =
      std::string(kOutDir) + "/" + w_.name + "-" + std::to_string(seed_);
  if (!spans::WriteChromeTrace(stem + ".trace.json")) {
    std::fprintf(stderr, "could not write %s.trace.json\n", stem.c_str());
  }
  std::ofstream report(stem + ".layers.json");
  report << "{\"self_seconds\":{";
  bool first = true;
  for (const auto& [name, secs] : spans::SelfSeconds()) {
    report << (first ? "" : ",") << "\"" << name << "\":" << JsonNumber(secs);
    first = false;
  }
  report << "},\"ladder_ns_per_query\":{\"locate\":"
         << JsonNumber(layers_["ladder.locate_ns"])
         << ",\"engine_batch\":" << JsonNumber(layers_["ladder.engine_ns"])
         << ",\"inprocess\":" << JsonNumber(layers_["ladder.inprocess_ns"])
         << ",\"loopback\":" << JsonNumber(layers_["ladder.loopback_ns"])
         << "},\"engine_window_qps\":{\"q1\":"
         << JsonNumber(engine_window_qps_.q1)
         << ",\"median\":" << JsonNumber(engine_window_qps_.median)
         << ",\"q3\":" << JsonNumber(engine_window_qps_.q3) << "}}\n";
  for (const auto& [name, value] : layers_) {
    out_.Add(name, value, LayerUnit(name));
  }
}

int Runner::Run() {
  PrintProvenance(w_, seed_, seconds_, trace_);
  spans::Enable(trace_);
  if (!SetUp()) return 2;
  spans::Enable(false);
  PrepareQueries();
  MeasureReads();
  if (trace_) MeasureEngine();
  spans::Enable(trace_);
  MeasureWrites();
  spans::Enable(false);
  if (trace_) RunLayerProbes();
  // The transient peak (VmHWM) is a per-layer metric: it depends on
  // whether a seed's blob crosses a buffer-doubling step in the save.
  layers_["rss_peak_mb"] = ProcStatusMb("VmHWM:");
  fixture_.server.reset();  // stop the reactor and its workers

  if (trace_) {
    ReportLayers();
  } else {
    const double ok_ratio =
        out_.attempted > 0
            ? static_cast<double>(out_.attempted - out_.failed) /
                  static_cast<double>(out_.attempted)
            : 0.0;
    const double writes_per_s =
        write_.wall_s > 0 ? static_cast<double>(write_.acked) / write_.wall_s
                          : 0;
    out_.Add("setup_s", Median(setup_times_), "s");
    out_.Add("rss_mb", rss_after_setup_mb_, "MB");
    out_.Add("ok_ratio", ok_ratio, "ratio");
    out_.Add("read_max_qps", read_max_qps_, "1/s");
    out_.Add("writes_per_s", writes_per_s, "1/s");
    out_.Add("write_ack_p50_ms", Median(write_.ack_ms), "ms");
    out_.Add("write_ack_p75_ms", Percentile(write_.ack_ms, 75), "ms");
    out_.Add("write_visible_p50_ms", Median(write_.visible_ms), "ms");
  }
  for (const std::string& note : out_.notes) {
    std::fprintf(stderr, "WRONG: %s\n", note.c_str());
  }
  PrintResult(out_);
  return out_.correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: skybench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace skybench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return skybench::Usage();
    }
  }
  const skybench::Workload* w = skybench::FindWorkload(workload);
  if (w == nullptr || argc % 2 == 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return skybench::Usage();
  }
  skybench::Runner runner(*w, seed, seconds, trace == 1);
  return runner.Run();
}
