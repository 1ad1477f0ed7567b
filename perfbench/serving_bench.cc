// Closed-loop load test of the production serving stack, in one process:
//
//   Client -> Server (protocol, IO thread) -> DynamicBatcher -> ShardRouter
//   -> OracleShard -> OracleService -> DotOracle (stage 1 diffusion + UNet,
//   stage 2 estimator)
//
// Set-up trains the workload's model (BuildDataset, TrainStage1/2), seals
// it (SaveFile), loads every shard from the sealed file (OracleShard::Create
// with a LoadFile factory) and starts the server on a loopback port. One
// generator thread on one connection then keeps a fixed window of requests
// outstanding and sends a fixed, seeded request list. The list is counted,
// not timed: a run ends when every request has been answered.
//
// An untraced run prints the end-to-end metrics. A traced run serves the
// first half of the list untraced and the second half traced, each on a
// fresh stack, and prints the per-layer ledger; layer numbers come only
// from timing calls made from here, public counters, and the existing
// OpProfiler.
//
// Usage: perfbench_serving --workload demo_hot|demo_zipf|paper_cold
//          --seed N --seconds S --trace 0|1 --workdir DIR
// The last stdout line is the result JSON; the exit code is non-zero when
// the output check fails. See README.md for the metric definitions.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/shard.h"
#include "logic.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "serve/client.h"
#include "serve/demo.h"
#include "serve/router.h"
#include "serve/server.h"
#include "tensor/storage.h"

namespace perfbench {
namespace {

using dot::DotConfig;
using dot::OdtInput;
using dot::Result;
using dot::Status;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Independent sub-seeds of the workload seed (splitmix64 finalizer).
uint64_t Derive(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workloads

struct WorldSpec {
  dot::CityConfig city;
  uint64_t city_seed = 0;
  dot::TripConfig trips;  ///< training trips (count) and request demand
  uint64_t data_seed = 0;
  DotConfig model;
};

// The demo world dot_server serves (L_G=8, 2 UNet levels, 4 DDIM steps),
// trained on twice the trips for more epochs than dot_server's quick start:
// the served shapes are identical, and the answers beat the prior-mean
// predictor by a margin the output check can rely on for every seed.
WorldSpec DemoWorld() {
  WorldSpec w{dot::serve::DemoCityConfig(), dot::serve::kDemoCitySeed,
              dot::serve::DemoTripConfig(), dot::serve::kDemoDataSeed,
              dot::serve::DemoDotConfig()};
  w.trips.num_trips = 480;
  w.model.stage1_epochs = 2;
  w.model.stage2_epochs = 8;
  return w;
}

// Paper-shaped model (Table 2 optimum: L_G=20, L_D=3, d_E=64, L_E=2) with
// 24 DDIM steps, trained briefly (one stage-1 epoch, six cheap stage-2
// epochs): set-up stays within a run's budget, and stage-1 cost per query
// does not depend on training.
WorldSpec PaperWorld() {
  WorldSpec w;
  w.city = dot::CityConfig::ChengduLike();
  w.city_seed = 11;
  w.trips = dot::TripConfig::ChengduLike();
  w.trips.num_trips = 240;
  w.data_seed = 23;
  DotConfig& c = w.model;
  c.grid_size = 20;
  c.sample_steps = 24;
  c.unet.base_channels = 16;
  c.unet.levels = 3;
  c.estimator.embed_dim = 64;
  c.estimator.layers = 2;
  c.stage1_epochs = 1;
  c.stage2_epochs = 6;
  c.val_samples = 0;
  c.stage2_inferred_fraction = 0.0;
  return w;
}

enum class ListKind { kHot, kZipf, kCold };

struct WorkloadSpec {
  const char* name;
  WorldSpec (*world)();
  ListKind list;
  int64_t shards;
  int64_t window;        ///< requests kept outstanding by the generator
  double deadline_ms;    ///< client deadline per request (0 = none)
  int64_t swaps;         ///< SwapAll calls, evenly spaced along the list
  /// Simulated ground-truth trips behind the list. The pool is the same
  /// in every run (a fixed query population, like a fixed test set); the
  /// workload seed draws the list from it.
  int64_t pool_trips;
  int64_t hot_ods;       ///< kHot: distinct ODs, warmed before timing
  /// Requests per --seconds of run length: the list holds
  /// max(min_requests, seconds * requests_per_second) requests, sized from
  /// the reference host's throughput so a run takes about --seconds there.
  double requests_per_second;
  int64_t min_requests;
  /// The timed phase is cut, in response order, into this many equal
  /// segments; goodput, latencies and CPU per answer are the medians of
  /// the segments' values, so a few seconds of host noise move a few
  /// segments and not the metric. With swaps, segments = swaps + 1 puts
  /// one swap (or the cold start) and its cache refill at the head of
  /// every segment.
  int64_t segments;
};

// Why each workload exists is documented in README.md.
const WorkloadSpec kWorkloads[] = {
    {"demo_hot", DemoWorld, ListKind::kHot, /*shards=*/1, /*window=*/16,
     /*deadline_ms=*/0, /*swaps=*/0, /*pool_trips=*/320, /*hot_ods=*/256,
     /*requests_per_second=*/12000, /*min_requests=*/2000,
     /*segments=*/60},
    {"demo_zipf", DemoWorld, ListKind::kZipf, 2, 16, 250, 2, 3000, 0, 900,
     1000, 3},
    {"paper_cold", PaperWorld, ListKind::kCold, 1, 4, 0, 0, 120, 0, 2.4, 100,
     1},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Set-up: dataset, training, sealing, shard load, server start.

/// A trained, sealed model. The shards load their replicas from `ckpt`.
struct Model {
  DotConfig config;
  std::unique_ptr<dot::City> city;
  std::unique_ptr<dot::BenchmarkDataset> dataset;  // references `city`
  std::unique_ptr<dot::Grid> grid;
  double prior_mean_minutes = 0;
  std::string ckpt;
};

struct SetupTiming {
  double total_s = 0;  ///< workload start to server ready
  double stage1_s = 0, stage2_s = 0, seal_ms = 0;
  double create_ms = 0;  ///< OracleShard::Create, mean per shard
  double start_ms = 0;   ///< Server::Start
};

/// Filled by the traced backend wrapper (batcher thread), read after the
/// phase.
struct WaveLedger {
  std::mutex mu;
  std::vector<double> wave_ms, stage1_ms, stage2_ms;
};

dot::serve::BatchBackend TracedBackend(dot::serve::BatchBackend inner,
                                       WaveLedger* ledger) {
  return [inner = std::move(inner), ledger](
             const std::vector<OdtInput>& odts,
             const dot::QueryOptions& opts) {
    dot::QueryOptions o = opts;
    dot::StageTiming local;
    if (o.timing == nullptr) o.timing = &local;
    double t0 = NowMs();
    Result<std::vector<dot::DotEstimate>> r = inner(odts, o);
    double wave = NowMs() - t0;
    std::lock_guard<std::mutex> lock(ledger->mu);
    ledger->wave_ms.push_back(wave);
    ledger->stage1_ms.push_back(o.timing->stage1_us * 1e-3);
    ledger->stage2_ms.push_back(o.timing->stage2_us * 1e-3);
    return r;
  };
}

/// Checkpoint loads made by the shard factory (creation and hot swaps).
struct LoadLedger {
  std::mutex mu;
  std::vector<double> load_ms;
};

/// The serving stack of one phase. Member order matters: the server (whose
/// backend points at the router) is destroyed first.
struct Stack {
  std::unique_ptr<dot::serve::ShardRouter> router;
  std::unique_ptr<dot::serve::Server> server;
  int64_t max_batch = 0;
};

Result<Stack> StartStack(const Model& model, const WorkloadSpec& spec,
                         LoadLedger* loads, WaveLedger* waves,
                         SetupTiming* timing) {
  // Captures copies and the heap-owned grid: `model` itself may move.
  dot::ModelFactory factory =
      [config = model.config, grid = model.grid.get(), ckpt = model.ckpt,
       loads]() -> Result<std::unique_ptr<dot::DotOracle>> {
    double t0 = NowMs();
    auto oracle = std::make_unique<dot::DotOracle>(config, *grid);
    Status loaded = oracle->LoadFile(ckpt);
    if (!loaded.ok()) return loaded;
    std::lock_guard<std::mutex> lock(loads->mu);
    loads->load_ms.push_back(NowMs() - t0);
    return oracle;
  };
  Stack stack;
  std::vector<std::unique_ptr<dot::OracleShard>> shards;
  double t0 = NowMs();
  for (int64_t s = 0; s < spec.shards; ++s) {
    dot::ShardConfig config;
    config.shard_id = std::to_string(s);
    Result<std::unique_ptr<dot::OracleShard>> shard =
        dot::OracleShard::Create(factory, std::move(config));
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard).ValueOrDie());
  }
  double t1 = NowMs();
  stack.router =
      std::make_unique<dot::serve::ShardRouter>(std::move(shards));
  dot::serve::BatchBackend backend =
      dot::serve::RouterBackend(stack.router.get());
  if (waves != nullptr) backend = TracedBackend(std::move(backend), waves);
  dot::serve::ServerConfig config = dot::serve::ServerConfig::FromEnv();
  config.host = "127.0.0.1";
  config.port = 0;
  stack.max_batch = config.batcher.max_batch;
  stack.server =
      std::make_unique<dot::serve::Server>(std::move(backend), config);
  DOT_RETURN_NOT_OK(stack.server->Start());
  if (timing != nullptr) {
    timing->create_ms = (t1 - t0) / static_cast<double>(spec.shards);
    timing->start_ms = NowMs() - t1;
  }
  return stack;
}

/// Runs one full set-up. `stack` receives the started serving stack.
Result<Model> RunSetup(const WorkloadSpec& spec, const std::string& ckpt,
                       LoadLedger* loads, Stack* stack, SetupTiming* timing) {
  double t0 = NowMs();
  WorldSpec world = spec.world();
  Model model;
  model.config = world.model;
  model.ckpt = ckpt;
  model.city = std::make_unique<dot::City>(world.city, world.city_seed);
  model.dataset = std::make_unique<dot::BenchmarkDataset>(dot::BuildDataset(
      *model.city, world.trips, world.data_seed, spec.name));
  Result<dot::Grid> grid = model.dataset->MakeGrid(world.model.grid_size);
  if (!grid.ok()) return grid.status();
  model.grid = std::make_unique<dot::Grid>(std::move(grid).ValueOrDie());
  {
    dot::DotOracle oracle(world.model, *model.grid);
    double t1 = NowMs();
    DOT_RETURN_NOT_OK(oracle.TrainStage1(model.dataset->split.train));
    double t2 = NowMs();
    DOT_RETURN_NOT_OK(oracle.TrainStage2(model.dataset->split.train,
                                         model.dataset->split.val));
    double t3 = NowMs();
    DOT_RETURN_NOT_OK(oracle.SaveFile(ckpt));
    timing->seal_ms = NowMs() - t3;
    timing->stage1_s = (t2 - t1) * 1e-3;
    timing->stage2_s = (t3 - t2) * 1e-3;
    model.prior_mean_minutes = oracle.prior_mean_minutes();
  }
  Result<Stack> started = StartStack(model, spec, loads, nullptr, timing);
  if (!started.ok()) return started.status();
  *stack = std::move(started).ValueOrDie();
  timing->total_s = (NowMs() - t0) * 1e-3;
  return model;
}

// ---------------------------------------------------------------------------
// Request lists

struct Inputs {
  std::vector<Request> list;  ///< the timed requests
  std::vector<Request> warm;  ///< sent once before timing, untimed
  int64_t requested = 0;      ///< the list length the workload asks for
  size_t pool = 0;            ///< ground-truth trips the list is drawn from
};

constexpr uint64_t kPoolSeed = 101;

Inputs MakeInputs(const WorkloadSpec& spec, const Model& model, uint64_t seed,
                  double seconds) {
  WorldSpec world = spec.world();
  int64_t tod_slots = dot::OracleServiceConfig{}.tod_slots;
  std::vector<Request> pool =
      SimulatedPool(*model.city, world.trips, spec.pool_trips, kPoolSeed,
                    *model.grid, tod_slots);
  int64_t n = std::max<int64_t>(
      spec.min_requests,
      static_cast<int64_t>(std::llround(seconds * spec.requests_per_second)));
  Inputs in;
  in.requested = n;
  in.pool = pool.size();
  switch (spec.list) {
    case ListKind::kHot:
      in.list = HotList(pool, spec.hot_ods, n, Derive(seed, 2));
      in.warm = FirstOccurrences(in.list);
      break;
    case ListKind::kZipf: {
      in.list = ZipfList(pool, n, 1.0, Derive(seed, 2));
      std::vector<Request> listed = in.list;
      std::sort(listed.begin(), listed.end(),
                [](const Request& a, const Request& b) {
                  return a.bucket < b.bucket;
                });
      for (const Request& r : pool) {
        if (static_cast<int64_t>(in.warm.size()) >= spec.window) break;
        bool used = std::binary_search(
            listed.begin(), listed.end(), r,
            [](const Request& a, const Request& b) {
              return a.bucket < b.bucket;
            });
        if (!used) in.warm.push_back(r);
      }
      break;
    }
    case ListKind::kCold: {
      // The warm-up takes the buckets after the list's, so it never
      // pre-fills a timed request.
      std::vector<Request> cold =
          ColdList(pool, n + spec.window, Derive(seed, 2));
      size_t cut = std::min(cold.size(), static_cast<size_t>(n));
      in.list.assign(cold.begin(), cold.begin() + static_cast<int64_t>(cut));
      in.warm.assign(cold.begin() + static_cast<int64_t>(cut), cold.end());
      break;
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// The closed-loop generator

/// Clocks read by the generator at the start of a phase and at the end of
/// each segment.
struct Mark {
  double wall_ms = 0, process_cpu_ms = 0, generator_cpu_ms = 0;
};

struct PhaseResult {
  std::vector<Observed> responses;  // in the order they arrived
  std::vector<Mark> marks;          // segments + 1 when the phase completes
  std::vector<dot::serve::TimingBreakdown> breakdowns;  // traced only
  int64_t sent = 0;
  std::string transport_error;
  double wall_ms = 0, generator_cpu_ms = 0;
  dot::serve::BatcherStats batcher;  // deltas over the phase
  dot::serve::ServerStats server;
  std::vector<double> swap_ms;
  std::string swap_error;
  std::vector<dot::ShardStatus> shards_before, shards_after;
  dot::obs::MetricsSnapshot metrics_before, metrics_after;
  dot::storage::PoolStats pool_before, pool_after;
  int64_t non_healthy_polls = 0;  // traced only
};

/// Sends `list` with `window` requests outstanding; returns when every
/// request is answered (or the connection broke). The clocks are marked at
/// the start and after every `n / segments` responses. `progress`, when
/// set, is told how many requests were sent so far.
void RunGenerator(int port, const std::vector<Request>& list, int64_t window,
                  int64_t segments, double deadline_ms, uint8_t flags,
                  PhaseResult* out,
                  const std::function<void(int64_t)>& progress) {
  dot::serve::Client client;
  Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) {
    out->transport_error = connected.ToString();
    return;
  }
  const int64_t n = static_cast<int64_t>(list.size());
  std::vector<double> sent_ms(list.size(), 0);
  out->responses.reserve(list.size());
  int64_t next = 0, outstanding = 0;
  auto send = [&]() -> bool {
    sent_ms[static_cast<size_t>(next)] = NowMs();
    Status s = client.SendQuery(static_cast<uint64_t>(next + 1),
                                list[static_cast<size_t>(next)].odt,
                                deadline_ms, /*trace_id=*/0, flags);
    if (!s.ok()) {
      out->transport_error = s.ToString();
      return false;
    }
    ++next;
    ++outstanding;
    if (progress) progress(next);
    return true;
  };
  auto mark = [out] {
    out->marks.push_back({NowMs(), CpuMs(CLOCK_PROCESS_CPUTIME_ID),
                          CpuMs(CLOCK_THREAD_CPUTIME_ID)});
  };
  int64_t segment = 0;
  double cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
  double t0 = NowMs();
  mark();
  while (next < n && outstanding < window) {
    if (!send()) break;
  }
  while (outstanding > 0 && out->transport_error.empty()) {
    Result<dot::serve::Message> msg = client.Receive(/*timeout_ms=*/120000);
    if (!msg.ok()) {
      out->transport_error = msg.status().ToString();
      break;
    }
    const auto* r = std::get_if<dot::serve::QueryResponse>(&*msg);
    if (r == nullptr) continue;
    double now = NowMs();
    Observed o;
    o.id = r->id;
    o.code = r->code;
    o.quality = r->quality;
    o.minutes = r->minutes;
    if (r->id >= 1 && r->id <= static_cast<uint64_t>(n)) {
      o.latency_ms = now - sent_ms[r->id - 1];
    }
    out->responses.push_back(o);
    if (r->has_breakdown) out->breakdowns.push_back(r->breakdown);
    if (segment < segments &&
        static_cast<int64_t>(out->responses.size()) ==
            SegmentEnd(n, segments, segment)) {
      mark();
      ++segment;
    }
    --outstanding;
    if (next < n && !send()) break;
  }
  out->wall_ms = NowMs() - t0;
  out->generator_cpu_ms = CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  out->sent = next;
}

dot::serve::BatcherStats Delta(const dot::serve::BatcherStats& a,
                               const dot::serve::BatcherStats& b) {
  dot::serve::BatcherStats d;
  d.submitted = a.submitted - b.submitted;
  d.completed = a.completed - b.completed;
  d.rejected_full = a.rejected_full - b.rejected_full;
  d.rejected_stale = a.rejected_stale - b.rejected_stale;
  d.waves = a.waves - b.waves;
  d.size_flushes = a.size_flushes - b.size_flushes;
  d.age_flushes = a.age_flushes - b.age_flushes;
  d.drain_flushes = a.drain_flushes - b.drain_flushes;
  return d;
}

/// Sends the warm-up requests, untimed, keeping at most one wave
/// outstanding: a deeper queue of cache misses would wait past the
/// admission budget and be refused.
Status WarmUp(const WorkloadSpec& spec, Stack* stack, const Inputs& inputs) {
  PhaseResult warm;
  RunGenerator(stack->server->port(), inputs.warm,
               std::min(spec.window, stack->max_batch), 1, 0, 0, &warm, {});
  if (!warm.transport_error.empty()) {
    return Status::IOError("warm-up: " + warm.transport_error);
  }
  CheckResult check = CheckResponses(
      static_cast<int64_t>(inputs.warm.size()), warm.responses);
  for (const Observed& o : warm.responses) {
    if (o.code != 0) {
      check.errors.push_back("a warm-up request was refused or failed");
      break;
    }
  }
  if (!check.ok()) return Status::Internal("warm-up: " + check.errors[0]);
  return Status::OK();
}

/// Sends the timed list, firing the workload's hot swaps from a second
/// thread at evenly spaced points.
PhaseResult RunTimed(const WorkloadSpec& spec, Stack* stack,
                     const Inputs& inputs, bool traced) {
  dot::serve::Server& server = *stack->server;
  dot::serve::ShardRouter& router = *stack->router;
  uint8_t flags = traced ? dot::serve::kQueryFlagWantBreakdown : 0;
  PhaseResult out;
  out.shards_before = router.Statuses();
  out.metrics_before = dot::obs::SnapshotMetrics();
  out.pool_before = dot::storage::GetPoolStats();
  dot::serve::BatcherStats batcher0 = server.batcher_stats();
  dot::serve::ServerStats server0 = server.stats();

  // Hot swaps at list positions k * n / (swaps + 1).
  std::mutex mu;
  std::condition_variable cv;
  int64_t swaps_due = 0;
  bool done = false;
  const int64_t n = static_cast<int64_t>(inputs.list.size());
  std::thread swapper;
  if (spec.swaps > 0) {
    swapper = std::thread([&] {
      for (int64_t k = 1; k <= spec.swaps; ++k) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return swaps_due >= k || done; });
          if (swaps_due < k) return;
        }
        double t0 = NowMs();
        Status s = router.SwapAll();
        out.swap_ms.push_back(NowMs() - t0);
        if (!s.ok() && out.swap_error.empty()) out.swap_error = s.ToString();
      }
    });
  }
  std::atomic<bool> polling{traced};
  std::thread poller;
  if (traced) {
    poller = std::thread([&] {
      while (polling.load()) {
        bool healthy = true;
        for (const dot::ShardStatus& s : router.Statuses()) {
          healthy = healthy && s.health == dot::ShardHealth::kHealthy;
        }
        if (!healthy) ++out.non_healthy_polls;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  auto progress = [&](int64_t sent) {
    if (spec.swaps == 0) return;
    int64_t due = sent * (spec.swaps + 1) / std::max<int64_t>(n, 1);
    std::lock_guard<std::mutex> lock(mu);
    if (due > swaps_due) {
      swaps_due = due;
      cv.notify_all();
    }
  };
  RunGenerator(server.port(), inputs.list, spec.window, spec.segments,
               spec.deadline_ms, flags, &out, progress);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  }
  if (swapper.joinable()) swapper.join();
  polling.store(false);
  if (poller.joinable()) poller.join();
  out.batcher = Delta(server.batcher_stats(), batcher0);
  dot::serve::ServerStats server1 = server.stats();
  out.server.requests = server1.requests - server0.requests;
  out.server.responses = server1.responses - server0.responses;
  out.server.protocol_errors = server1.protocol_errors - server0.protocol_errors;
  out.server.overload_rejected =
      server1.overload_rejected - server0.overload_rejected;
  out.shards_after = router.Statuses();
  out.pool_after = dot::storage::GetPoolStats();
  out.metrics_after = dot::obs::SnapshotMetrics();
  return out;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Goodput, latencies and CPU per answer of one segment of a phase.
struct Segment {
  double goodput_qps = 0, p50 = 0, p90 = 0, cpu_ms_per_query = 0;
};

struct EndToEnd {
  // Timings: medians over the phase's segments.
  double goodput_qps = 0, p50 = 0, p90 = 0, cpu_ms_per_query = 0;
  double p99 = 0;  // over the whole phase, diagnostic only
  double ok_share = 0, full_share = 0;
  int64_t ok = 0, good = 0, latency_samples = 0;
  std::vector<Segment> segments;
  Accuracy accuracy;
};

EndToEnd Summarize(const WorkloadSpec& spec, const Inputs& inputs,
                   const PhaseResult& r, double prior_mean_minutes) {
  EndToEnd e;
  auto is_good = [&spec](const Observed& o) {
    bool in_time = spec.deadline_ms <= 0 || o.latency_ms <= spec.deadline_ms;
    return o.code == 0 &&
           o.quality == static_cast<uint8_t>(dot::ServedQuality::kFull) &&
           in_time;
  };
  std::vector<double> latencies;
  for (const Observed& o : r.responses) {
    if (o.code != 0) continue;
    ++e.ok;
    latencies.push_back(o.latency_ms);
    if (is_good(o)) ++e.good;
  }
  // Segments whose end was marked (all of them unless the phase broke).
  const int64_t n = static_cast<int64_t>(r.responses.size());
  int64_t begin = 0;
  for (size_t s = 0; s + 1 < r.marks.size(); ++s) {
    const int64_t end =
        SegmentEnd(static_cast<int64_t>(inputs.list.size()), spec.segments,
                   static_cast<int64_t>(s));
    std::vector<double> segment_latencies;
    int64_t ok = 0, good = 0;
    for (int64_t i = begin; i < std::min(end, n); ++i) {
      const Observed& o = r.responses[static_cast<size_t>(i)];
      if (o.code != 0) continue;
      ++ok;
      segment_latencies.push_back(o.latency_ms);
      if (is_good(o)) ++good;
    }
    begin = end;
    const Mark& m0 = r.marks[s];
    const Mark& m1 = r.marks[s + 1];
    Segment seg;
    seg.goodput_qps =
        Share(static_cast<double>(good), (m1.wall_ms - m0.wall_ms) * 1e-3);
    seg.p50 = Percentile(segment_latencies, 50);
    seg.p90 = Percentile(segment_latencies, 90);
    seg.cpu_ms_per_query =
        Share((m1.process_cpu_ms - m0.process_cpu_ms) -
                  (m1.generator_cpu_ms - m0.generator_cpu_ms),
              static_cast<double>(ok));
    e.segments.push_back(seg);
  }
  auto median_of = [&e](double Segment::*field) {
    std::vector<double> v;
    for (const Segment& seg : e.segments) v.push_back(seg.*field);
    return Median(std::move(v));
  };
  const double sent = static_cast<double>(inputs.list.size());
  e.latency_samples = static_cast<int64_t>(latencies.size());
  e.goodput_qps = median_of(&Segment::goodput_qps);
  e.p50 = median_of(&Segment::p50);
  e.p90 = median_of(&Segment::p90);
  e.cpu_ms_per_query = median_of(&Segment::cpu_ms_per_query);
  e.p99 = Percentile(latencies, 99);
  e.ok_share = Share(static_cast<double>(e.ok), sent);
  e.full_share = Share(static_cast<double>(e.good), sent);
  e.accuracy = ScoreAccuracy(inputs.list, r.responses, prior_mean_minutes);
  return e;
}

/// The output check of one phase (see README.md, "Output check").
CheckResult CheckPhase(const WorkloadSpec& spec, const Inputs& inputs,
                       const PhaseResult& r, const EndToEnd& e) {
  const int64_t n = static_cast<int64_t>(inputs.list.size());
  CheckResult check = CheckResponses(n, r.responses);
  auto fail = [&check](std::string msg) {
    check.errors.push_back(std::move(msg));
  };
  if (!r.transport_error.empty()) fail("transport: " + r.transport_error);
  if (r.sent != n) {
    fail("sent " + std::to_string(r.sent) + " of " + std::to_string(n));
  }
  if (r.batcher.submitted + r.server.overload_rejected != n ||
      r.batcher.completed != r.batcher.submitted) {
    fail("batcher submitted " + std::to_string(r.batcher.submitted) +
         " + rejected " + std::to_string(r.server.overload_rejected) +
         ", completed " + std::to_string(r.batcher.completed) + ", for " +
         std::to_string(n) + " requests");
  }
  if (r.server.requests != n || r.server.protocol_errors != 0) {
    fail("server decoded " + std::to_string(r.server.requests) +
         " requests with " + std::to_string(r.server.protocol_errors) +
         " protocol errors, for " + std::to_string(n) + " sent");
  }
  if (e.accuracy.queries == 0 ||
      !(e.accuracy.mae_min < e.accuracy.prior_mae_min)) {
    fail("mae " + std::to_string(e.accuracy.mae_min) +
         " min does not beat the prior-mean predictor's " +
         std::to_string(e.accuracy.prior_mae_min));
  }
  if (spec.list == ListKind::kCold && DistinctBuckets(inputs.list) != n) {
    fail("cold list repeats a bucket");
  }
  if (!r.swap_error.empty()) fail("hot swap: " + r.swap_error);
  if (static_cast<int64_t>(r.swap_ms.size()) != spec.swaps) {
    fail(std::to_string(r.swap_ms.size()) + " of " +
         std::to_string(spec.swaps) + " hot swaps ran");
  }
  for (size_t s = 0; s < r.shards_after.size(); ++s) {
    int64_t bumped =
        r.shards_after[s].model_version - r.shards_before[s].model_version;
    if (bumped != spec.swaps) {
      fail("shard " + r.shards_after[s].id + " model version moved by " +
           std::to_string(bumped));
    }
  }
  return check;
}

double CounterDelta(const dot::obs::MetricsSnapshot& a,
                    const dot::obs::MetricsSnapshot& b,
                    const std::string& prefix) {
  double sum = 0;
  for (const auto& [name, value] : a.counters) {
    if (name.rfind(prefix, 0) != 0) continue;
    auto it = b.counters.find(name);
    sum += static_cast<double>(value - (it == b.counters.end() ? 0 : it->second));
  }
  return sum;
}

double HistogramSumDelta(const dot::obs::MetricsSnapshot& a,
                         const dot::obs::MetricsSnapshot& b,
                         const std::string& name) {
  auto ia = a.histograms.find(name);
  auto ib = b.histograms.find(name);
  double sa = ia == a.histograms.end() ? 0 : ia->second.sum;
  double sb = ib == b.histograms.end() ? 0 : ib->second.sum;
  return sa - sb;
}

/// Stage-1 cost between two snapshots: oracle stage-1 time (summed over
/// shards) per cache miss, and the median stage-1 time of the waves that
/// ran stage 1.
struct Stage1Cost {
  double total_ms = 0, ms_per_miss = 0, wave_ms_p50 = 0;
};

Stage1Cost Stage1CostOf(const dot::obs::MetricsSnapshot& after,
                        const dot::obs::MetricsSnapshot& before,
                        const std::vector<double>& wave_stage1_ms) {
  Stage1Cost c;
  c.total_ms =
      HistogramSumDelta(after, before, "dot_oracle_stage1_latency_us") * 1e-3;
  c.ms_per_miss = Share(
      c.total_ms,
      CounterDelta(after, before, "dot_service_cache_misses_total"));
  std::vector<double> ran;
  for (double ms : wave_stage1_ms) {
    if (ms > 0) ran.push_back(ms);
  }
  c.wave_ms_p50 = Median(ran);
  return c;
}

/// Per-layer numbers of a traced phase. Where the timed phase runs no
/// stage 1 (demo_hot) the stage-1 cost comes from the warm-up's misses, and
/// where it fires no hot swap, `idle_swap_ms` times one on the idle stack.
std::vector<Metric> LayerMetrics(
    const PhaseResult& r, const EndToEnd& e,
    double untraced_goodput, const SetupTiming& setup,
    const LoadLedger& loads, WaveLedger& waves, const Stage1Cost& warm_stage1,
    double idle_swap_ms) {
  const double wall_ms = r.wall_ms;
  const dot::obs::MetricsSnapshot& before = r.metrics_before;
  const dot::obs::MetricsSnapshot& after = r.metrics_after;
  // The echoed breakdown leaves serialize_us at 0 (a response cannot carry
  // its own encode time), so "outside" also holds the encode; the encode
  // alone comes from the server's rolling window of its serialize timer.
  std::vector<double> outside, queue;
  size_t bi = 0;
  for (const Observed& o : r.responses) {
    if (o.code != 0 || bi >= r.breakdowns.size()) continue;
    const dot::serve::TimingBreakdown& b = r.breakdowns[bi++];
    double server_us = b.queue_us + b.batch_wait_us + b.stage1_us +
                       b.stage2_us + b.serialize_us;
    outside.push_back(o.latency_ms - server_us * 1e-3);
    queue.push_back(b.queue_us * 1e-3);
  }
  auto serialize = after.windows.find("dot_server_breakdown_serialize_us");
  double serialize_ms_p50 =
      serialize == after.windows.end() ? 0 : serialize->second.p50 * 1e-3;
  std::lock_guard<std::mutex> lock(waves.mu);
  double backend_ms = 0, stage1_ms = 0, stage2_ms = 0;
  for (size_t i = 0; i < waves.wave_ms.size(); ++i) {
    backend_ms += waves.wave_ms[i];
    stage1_ms += waves.stage1_ms[i];
    stage2_ms += waves.stage2_ms[i];
  }
  // The workload split, as shares of backend time (diagnostic).
  std::printf("split: stage1=%.3f stage2=%.3f of backend time (%.1fms over "
              "%zu waves)\n",
              Share(stage1_ms, backend_ms), Share(stage2_ms, backend_ms),
              backend_ms, waves.wave_ms.size());
  // Service counters and the stage histograms sum over every shard.
  double queries = CounterDelta(after, before, "dot_service_queries_total");
  double hits = CounterDelta(after, before, "dot_service_cache_hits_total");
  double dedup = CounterDelta(after, before, "dot_service_dedup_hits_total");
  double misses = CounterDelta(after, before, "dot_service_cache_misses_total");
  double degraded = CounterDelta(after, before, "dot_serving_degraded_total");
  Stage1Cost stage1 = Stage1CostOf(after, before, waves.stage1_ms);
  const Stage1Cost& stage1_cost = stage1.total_ms > 0 ? stage1 : warm_stage1;
  double stage2_total_us =
      HistogramSumDelta(after, before, "dot_oracle_stage2_latency_us");

  double max_q = 0, sum_q = 0;
  for (size_t s = 0; s < r.shards_after.size(); ++s) {
    double q = static_cast<double>(r.shards_after[s].queries -
                                   r.shards_before[s].queries);
    max_q = std::max(max_q, q);
    sum_q += q;
  }
  double mean_q = sum_q / static_cast<double>(std::max<size_t>(1, r.shards_after.size()));

  using dot::obs::OpKind;
  using dot::obs::OpProfiler;
  double conv_ms = OpProfiler::Get(OpKind::kConv2d).total_ms();
  double attn_ms = OpProfiler::Get(OpKind::kAttention).total_ms();
  dot::obs::OpStats kernel = OpProfiler::Get(OpKind::kGemmKernel);
  // The profiler cannot tell the stages apart, so op shares are of model
  // time (stage 1 + stage 2, summed over shards). On paper_cold stage 1 is
  // all of it; on demo_hot the shares profile stage 2.
  double model_ms = stage1.total_ms + stage2_total_us * 1e-3;
  auto of_model = [&](double ms) { return Share(ms, model_ms); };
  double unprofiled = model_ms > 0 ? 1.0 - of_model(conv_ms + attn_ms) : 0;

  double load_ms = Median(loads.load_ms);
  return {
      {"client.busy_share", Share(r.generator_cpu_ms, wall_ms), "ratio"},
      {"server.outside_ms_p50", Median(outside), "ms"},
      {"server.serialize_ms_p50", serialize_ms_p50, "ms"},
      {"server.start_ms", setup.start_ms, "ms"},
      {"batcher.queue_ms_p50", Median(queue), "ms"},
      {"batcher.busy_share", Share(backend_ms, wall_ms), "ratio"},
      {"batcher.wave_size_mean",
       Share(static_cast<double>(r.batcher.completed),
             static_cast<double>(r.batcher.waves)),
       "count"},
      {"batcher.age_flush_share",
       Share(static_cast<double>(r.batcher.age_flushes),
             static_cast<double>(r.batcher.waves)),
       "ratio"},
      {"batcher.rejected",
       static_cast<double>(r.batcher.rejected_full + r.batcher.rejected_stale),
       "count"},
      {"router.wave_ms_p50", Median(waves.wave_ms), "ms"},
      {"router.shard_skew", Share(max_q, mean_q), "ratio"},
      {"shard.swap_ms", r.swap_ms.empty() ? idle_swap_ms : Median(r.swap_ms),
       "ms"},
      {"shard.create_ms", setup.create_ms, "ms"},
      {"shard.non_healthy_polls", static_cast<double>(r.non_healthy_polls),
       "count"},
      {"service.hit_share", Share(hits, queries), "ratio"},
      {"service.dedup_share", Share(dedup, queries), "ratio"},
      {"service.miss_share", Share(misses, queries), "ratio"},
      {"service.degraded_share", Share(degraded, queries), "ratio"},
      {"stage1.busy_share", Share(stage1_ms, wall_ms), "ratio"},
      {"stage1.ms_per_miss", stage1_cost.ms_per_miss, "ms"},
      {"stage1.wave_ms_p50", stage1_cost.wave_ms_p50, "ms"},
      {"stage2.busy_share", Share(stage2_ms, wall_ms), "ratio"},
      {"stage2.us_per_query", Share(stage2_total_us, queries), "us"},
      {"tensor.conv2d_share", of_model(conv_ms), "ratio"},
      {"tensor.attention_share", of_model(attn_ms), "ratio"},
      {"tensor.gemm_kernel_share", of_model(kernel.total_ms()), "ratio"},
      {"tensor.unprofiled_share", unprofiled, "ratio"},
      {"tensor.gemm_gflops", kernel.gflops(), "GFLOP/s"},
      {"tensor.pool_misses",
       static_cast<double>(r.pool_after.misses - r.pool_before.misses),
       "count"},
      {"train.stage1_s", setup.stage1_s, "s"},
      {"train.stage2_s", setup.stage2_s, "s"},
      {"checkpoint.seal_ms", setup.seal_ms, "ms"},
      {"checkpoint.load_ms", load_ms, "ms"},
      {"trace.overhead_share", 1.0 - Share(e.goodput_qps, untraced_goodput),
       "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Output

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintPhase(const char* label, const PhaseResult& r, const EndToEnd& e) {
  std::printf(
      "%s: sent=%lld ok=%lld full_in_deadline=%lld wall=%.1fms "
      "goodput=%.2f/s p50=%.3fms p90=%.3fms p99=%.3fms (diagnostic; "
      "%lld latency samples, %lld beyond p90) cpu/query=%.4fms "
      "generator_cpu=%.1fms mae=%.4fmin prior_mae=%.4fmin waves=%lld "
      "age_flushes=%lld rejected=%lld swaps=%zu service_hits=%.0f "
      "dedup=%.0f misses=%.0f\n",
      label, static_cast<long long>(r.sent), static_cast<long long>(e.ok),
      static_cast<long long>(e.good), r.wall_ms, e.goodput_qps, e.p50, e.p90,
      e.p99, static_cast<long long>(e.latency_samples),
      static_cast<long long>(e.latency_samples / 10), e.cpu_ms_per_query,
      r.generator_cpu_ms, e.accuracy.mae_min, e.accuracy.prior_mae_min,
      static_cast<long long>(r.batcher.waves),
      static_cast<long long>(r.batcher.age_flushes),
      static_cast<long long>(r.server.overload_rejected),
      r.swap_ms.size(),
      CounterDelta(r.metrics_after, r.metrics_before,
                   "dot_service_cache_hits_total"),
      CounterDelta(r.metrics_after, r.metrics_before,
                   "dot_service_dedup_hits_total"),
      CounterDelta(r.metrics_after, r.metrics_before,
                   "dot_service_cache_misses_total"));
  if (e.segments.size() > 1) {
    std::string line = std::string(label) + " segments (goodput/s p50ms "
                                            "p90ms cpu/query ms):";
    char buf[96];
    for (const Segment& seg : e.segments) {
      std::snprintf(buf, sizeof(buf), " %.0f/%.3f/%.3f/%.4f", seg.goodput_qps,
                    seg.p50, seg.p90, seg.cpu_ms_per_query);
      line += buf;
    }
    std::printf("%s\n", line.c_str());
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  // Set-up runs several times and the median is reported: set-up time is a
  // regression metric, and a single training run is as noisy as a wave.
  // The traced run needs one set-up (its per-layer numbers have no bound).
  const int64_t setups = args.trace ? 1 : 3;
  LoadLedger loads;
  std::vector<double> setup_s;
  SetupTiming setup;
  Stack stack;
  Model model;
  for (int64_t k = 0; k < setups; ++k) {
    stack = Stack{};  // the previous set-up's server stops here
    std::string ckpt = args.workdir + "/" + spec->name + "." +
                       std::to_string(::getpid()) + "." + std::to_string(k) +
                       ".ckpt";
    Result<Model> built = RunSetup(*spec, ckpt, &loads, &stack, &setup);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    if (k > 0) ::unlink(model.ckpt.c_str());
    model = std::move(built).ValueOrDie();
    setup_s.push_back(setup.total_s);
    std::printf("setup %lld: %.3fs (train stage1 %.3fs, stage2 %.3fs, seal "
                "%.1fms, shard create %.1fms, server start %.2fms)\n",
                static_cast<long long>(k), setup.total_s, setup.stage1_s,
                setup.stage2_s, setup.seal_ms, setup.create_ms,
                setup.start_ms);
  }

  Inputs inputs = MakeInputs(*spec, model, args.seed, args.seconds);
  std::printf("inputs: workload=%s seed=%llu requests=%zu warm=%zu "
              "hash=%016llx distinct_buckets=%lld distinct_queries=%zu "
              "pool=%zu window=%lld shards=%lld\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              inputs.list.size(), inputs.warm.size(),
              static_cast<unsigned long long>(HashRequests(inputs.list)),
              static_cast<long long>(DistinctBuckets(inputs.list)),
              FirstOccurrences(inputs.list).size(), inputs.pool,
              static_cast<long long>(spec->window),
              static_cast<long long>(spec->shards));
  int rc = 0;
  if (static_cast<int64_t>(inputs.list.size()) != inputs.requested ||
      inputs.warm.empty()) {
    std::fprintf(stderr, "the pool of %zu trips cannot supply the list\n",
                 inputs.pool);
    rc = 1;
  }
  // A traced run serves the first half of the list untraced (the reference
  // for trace.overhead_share) and the second half traced, each on a fresh
  // stack, so it costs about as much as an untraced run.
  Inputs traced_in;
  if (args.trace) {
    auto half = inputs.list.begin() + static_cast<int64_t>(inputs.list.size() / 2);
    traced_in = {std::vector<Request>(half, inputs.list.end()), inputs.warm};
    inputs.list.erase(half, inputs.list.end());
  }

  PhaseResult plain;
  if (rc == 0) {
    Status warmed = WarmUp(*spec, &stack, inputs);
    if (warmed.ok()) {
      plain = RunTimed(*spec, &stack, inputs, false);
    } else {
      plain.transport_error = warmed.ToString();
    }
  }
  stack = Stack{};
  EndToEnd e = Summarize(*spec, inputs, plain, model.prior_mean_minutes);
  PrintPhase("untraced", plain, e);
  CheckResult check = CheckPhase(*spec, inputs, plain, e);

  std::vector<Metric> metrics;
  PhaseResult traced;
  EndToEnd te;
  if (args.trace && check.ok()) {
    WaveLedger waves;
    Result<Stack> started = StartStack(model, *spec, &loads, &waves, nullptr);
    dot::obs::MetricsSnapshot cold = dot::obs::SnapshotMetrics();
    Status warmed =
        started.ok() ? WarmUp(*spec, &*started, traced_in) : started.status();
    if (!warmed.ok()) {
      check.errors.push_back("traced stack: " + warmed.ToString());
    } else {
      stack = std::move(started).ValueOrDie();
      Stage1Cost warm_stage1;
      {
        std::lock_guard<std::mutex> lock(waves.mu);  // set the warm-up aside
        warm_stage1 = Stage1CostOf(dot::obs::SnapshotMetrics(), cold,
                                   waves.stage1_ms);
        waves.wave_ms.clear();
        waves.stage1_ms.clear();
        waves.stage2_ms.clear();
      }
      dot::obs::OpProfiler::Reset();
      dot::obs::OpProfiler::Enable(true);
      traced = RunTimed(*spec, &stack, traced_in, true);
      dot::obs::OpProfiler::Enable(false);
      double idle_swap_ms = 0;
      if (spec->swaps == 0) {
        double t0 = NowMs();
        Status swapped = stack.router->SwapAll();
        idle_swap_ms = NowMs() - t0;
        if (!swapped.ok()) {
          check.errors.push_back("idle hot swap: " + swapped.ToString());
        }
      }
      stack = Stack{};
      te = Summarize(*spec, traced_in, traced, model.prior_mean_minutes);
      PrintPhase("traced", traced, te);
      CheckResult tcheck = CheckPhase(*spec, traced_in, traced, te);
      for (std::string& err : tcheck.errors) {
        check.errors.push_back("traced: " + err);
      }
      metrics = LayerMetrics(traced, te, e.goodput_qps, setup, loads, waves,
                             warm_stage1, idle_swap_ms);
    }
  } else if (!args.trace) {
    metrics = {
        {"goodput_qps", e.goodput_qps, "1/s"},
        {"latency_p50_ms", e.p50, "ms"},
        {"latency_p90_ms", e.p90, "ms"},
        {"ok_share", e.ok_share, "ratio"},
        {"full_quality_share", e.full_share, "ratio"},
        {"mae_min", e.accuracy.mae_min, "min"},
        {"cpu_ms_per_query", e.cpu_ms_per_query, "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }
  ::unlink(model.ckpt.c_str());

  for (const std::string& err : check.errors) {
    std::printf("CHECK FAILED: %s\n", err.c_str());
  }
  const int64_t attempted =
      static_cast<int64_t>(inputs.list.size() + traced_in.list.size());
  PrintResult(check.ok(), std::max<int64_t>(attempted, 1),
              std::max<int64_t>(attempted - e.ok - te.ok, 0), metrics);
  return check.ok() ? rc : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (arg == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  return perfbench::Run(args);
}
