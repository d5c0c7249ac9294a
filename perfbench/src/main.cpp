// perfbench: the repo benchmark.  Runs one workload on the default
// optimizedConfig Runtime (3 workers plus the spawner) and prints, as
// its last line, one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics and the layer ledger (--trace 1).
//
//   perfbench --workload flood|cholesky|dag --seed N --seconds S --trace 0|1
//   perfbench --selfcheck     # the graph checks must reject corrupted runs
//
// perfbench/run.py builds this binary and is the documented entry point.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "instr/trace_analyzer.hpp"
#include "instr/tracer.hpp"
#include "layers.hpp"
#include "memory/pool_allocator.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kSetups = 9;
/// A run is cut into blocks of about this many seconds (at least 4).
constexpr double kBlockSeconds = 1.5;
/// Warm-up before timing: set-up's (part of setup_s) and, shorter, each
/// measuring Runtime's.
constexpr std::size_t kWarmTasks = 50000;
constexpr std::size_t kBlockWarmTasks = 10000;
/// peak_rss_mb is read once this many tasks have run at 3 workers, so a
/// faster runtime running more graphs in the window does not read worse.
constexpr std::size_t kRssTasks = 500000;
constexpr std::size_t kStampTasks = 262144;
constexpr std::size_t kReplayTasks = 131072;
constexpr std::size_t kTraceRecordsPerStream = std::size_t{1} << 17;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  int trace = 0;
  bool selfcheck = false;
  std::string gitSha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload flood|cholesky|dag "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA]\n"
               "       perfbench --selfcheck\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      args.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value);
    else if (flag == "--trace") args.trace = std::atoi(value);
    else if (flag == "--git-sha") args.gitSha = value;
    else usage("unknown flag");
  }
  if (args.selfcheck) return args;
  if (!isWorkload(args.workload)) usage("unknown workload");
  if (!(args.seconds > 0 && args.seconds <= 600)) usage("bad --seconds");
  if (args.trace != 0 && args.trace != 1) usage("bad --trace");
  return args;
}

std::size_t allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Numbers only from an optimized, uninstrumented build on a host with a
/// core for every worker and the spawner.
void refuseUnfitHost() {
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  sanitized = true;
#endif
#endif
  bool assertions = true;
#ifdef NDEBUG
  assertions = false;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || sanitized ||
      assertions) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build%s\n",
                 PERFBENCH_BUILD_TYPE, sanitized ? " with a sanitizer" : "");
    std::exit(3);
  }
  if (allowedCpus() < kWorkers + 1) {
    std::fprintf(stderr,
                 "perfbench: %zu workers + 1 spawner need %zu CPUs, the "
                 "process may use %zu\n",
                 kWorkers, kWorkers + 1, allowedCpus());
    std::exit(3);
  }
}

ats::RuntimeConfig runtimeConfig(std::size_t workers,
                                 ats::Tracer* tracer = nullptr) {
  ats::RuntimeConfig cfg =
      ats::optimizedConfig(ats::makeTopology(ats::MachinePreset::Host, workers));
  cfg.tracer = tracer;
  return cfg;
}

double seconds(std::uint64_t fromNs) {
  return static_cast<double>(ats::nowNanos() - fromNs) * 1e-9;
}

/// High-water resident set of this process image (VmHWM; unlike
/// ru_maxrss it does not carry over the parent's peak across exec).
double peakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

/// Every graph run anywhere counts here; a graph fails when its answer
/// or the runtime's task accounting is wrong.
struct Tally {
  std::size_t attempted = 0, failed = 0;
  void note(const GraphRun& run) {
    ++attempted;
    if (!run.ok) ++failed;
  }
};

struct Window {
  std::vector<double> graphMs;
  double graphSeconds = 0;
  std::size_t tasks = 0;
  double tasksPerS() const {
    return graphSeconds > 0 ? static_cast<double>(tasks) / graphSeconds : 0;
  }
};

void warmUp(Workload& w, ats::Runtime& rt, Tally& tally,
            std::size_t warmTasks) {
  for (std::size_t tasks = 0; tasks < warmTasks;) {
    const GraphRun run = w.runGraph(rt);
    tally.note(run);
    tasks += run.tasks;
  }
}

/// Graphs back to back on `rt` for about `budget` seconds.  A workload
/// with a graphsPerRuntime() limit gets a new Runtime(cfg) after every
/// limit graphs, and the window ends on such a boundary: the one nearest
/// the budget, so a 64-graph Runtime does not overrun it by most of its
/// length.  `afterGraph(window)` runs between graphs, outside the timed
/// spans.
template <typename AfterGraph>
Window measure(Workload& w, std::unique_ptr<ats::Runtime>& rt,
               const ats::RuntimeConfig& cfg, double budget, Tally& tally,
               AfterGraph afterGraph) {
  const std::size_t perRuntime = w.graphsPerRuntime();
  std::size_t onRuntime = 0, units = 0;
  Window window;
  const std::uint64_t start = ats::nowNanos();
  for (;;) {
    if (perRuntime != 0 && onRuntime == perRuntime) {
      rt.reset();
      rt = std::make_unique<ats::Runtime>(cfg);
      onRuntime = 0;
    }
    const GraphRun run = w.runGraph(*rt);
    ++onRuntime;
    tally.note(run);
    window.graphMs.push_back(run.seconds * 1e3);
    window.graphSeconds += run.seconds;
    window.tasks += run.tasks;
    afterGraph(window);
    if (perRuntime != 0 && onRuntime != perRuntime) continue;
    ++units;
    const double elapsed = seconds(start);
    if (elapsed + 0.5 * elapsed / static_cast<double>(units) >= budget)
      return window;
  }
}

Window measure(Workload& w, std::unique_ptr<ats::Runtime>& rt,
               const ats::RuntimeConfig& cfg, double budget, Tally& tally) {
  return measure(w, rt, cfg, budget, tally, [](const Window&) {});
}

/// Runtime(cfg) that has run kBlockWarmTasks tasks of the workload.  A
/// workload with a graphsPerRuntime() limit gets a cold one: measure()
/// starts its later Runtimes cold too, and each runs exactly that many
/// graphs.
std::unique_ptr<ats::Runtime> warmRuntime(Workload& w,
                                          const ats::RuntimeConfig& cfg,
                                          Tally& tally) {
  auto rt = std::make_unique<ats::Runtime>(cfg);
  if (w.graphsPerRuntime() == 0) warmUp(w, *rt, tally, kBlockWarmTasks);
  return rt;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void printResult(const Tally& tally, bool extraOk, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              tally.failed == 0 && extraOk ? "true" : "false", tally.attempted,
              tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].first.c_str(), metrics[i].second.first,
                metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------------------ end to end

void endToEnd(const Args& args) {
  Tally tally;
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  const ats::RuntimeConfig wideCfg = runtimeConfig(kWorkers);
  for (std::size_t s = 0; s < kSetups; ++s) {
    w.reset();
    const std::uint64_t t0 = ats::nowNanos();
    w = makeWorkload(args.workload);
    w->prepare(args.seed);
    ats::Runtime rt(wideCfg);
    warmUp(*w, rt, tally, kWarmTasks);
    setups.push_back(seconds(t0));
  }

  // Blocks of graphs at 3 workers and at 1, alternated so drift on the
  // host hits both alike; each block on a Runtime of its own.  Every
  // 3-worker graph of the run counts in graph_p50_ms and graph_p90_ms.  The
  // throughputs are block medians: a single Runtime can settle into an
  // unusual schedule for its whole life (a lone worker that keeps
  // sleeping through graphs the spawner then runs alone).
  std::vector<double> wideRates, singleRates, graphMs;
  std::size_t wideTasks = 0, wideGraphs = 0, singleGraphs = 0;
  double rssMiB = 0;
  const ats::RuntimeConfig singleCfg = runtimeConfig(1);
  const std::size_t blocks = std::max<std::size_t>(
      4, static_cast<std::size_t>(args.seconds / kBlockSeconds + 0.5));
  const double blockSeconds = args.seconds / static_cast<double>(blocks);
  for (std::size_t block = 0; block < blocks; ++block) {
    std::unique_ptr<ats::Runtime> rt = warmRuntime(*w, wideCfg, tally);
    const Window wide =
        measure(*w, rt, wideCfg, 0.65 * blockSeconds, tally,
                [&](const Window& window) {
                  if (rssMiB == 0 && wideTasks + window.tasks >= kRssTasks)
                    rssMiB = peakRssMiB();
                });
    rt.reset();
    rt = warmRuntime(*w, singleCfg, tally);
    const Window single =
        measure(*w, rt, singleCfg, 0.35 * blockSeconds, tally);
    rt.reset();
    wideRates.push_back(wide.tasksPerS());
    singleRates.push_back(single.tasksPerS());
    graphMs.insert(graphMs.end(), wide.graphMs.begin(), wide.graphMs.end());
    wideTasks += wide.tasks;
    wideGraphs += wide.graphMs.size();
    singleGraphs += single.graphMs.size();
  }
  if (rssMiB == 0) rssMiB = peakRssMiB();

  const Metrics metrics = {
      {"tasks_per_s", {quantile(wideRates, 0.5), "1/s"}},
      {"tasks_per_s_1w", {quantile(singleRates, 0.5), "1/s"}},
      {"graph_p50_ms", {quantile(graphMs, 0.5), "ms"}},
      {"graph_p90_ms", {quantile(graphMs, 0.9), "ms"}},
      {"setup_s", {quantile(setups, 0.5), "s"}},
      {"peak_rss_mb", {rssMiB, "MiB"}},
  };
  std::fprintf(stderr, "perfbench: %s graphs=%zu (+%zu at 1 worker), failed=%zu\n",
               args.workload.c_str(), wideGraphs, singleGraphs, tally.failed);
  printResult(tally, true, metrics);
}

// ------------------------------------------------------------ per layer

/// Scheduler numbers the Tracer gives for a traced window, summed over
/// the chunks the rings are drained in.
struct TraceTotals {
  double idleWeighted = 0, spanUs = 0;
  std::uint64_t serveCount = 0, servedTasks = 0, drainCount = 0,
                drainedTasks = 0, dropped = 0;

  void drain(ats::Tracer& tracer) {
    const ats::TraceAnalysis a = ats::analyzeTrace(tracer.collect(), kWorkers);
    idleWeighted += a.meanIdlePct * a.spanUs;
    spanUs += a.spanUs;
    serveCount += a.serveCount;
    servedTasks += a.servedTasks;
    drainCount += a.drainCount;
    drainedTasks += a.drainedTasks;
    dropped += tracer.dropped();
    tracer.reset();
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double mean(const std::vector<double>& values) {
  return ratio(std::accumulate(values.begin(), values.end(), 0.0),
               static_cast<double>(values.size()));
}

void perLayer(const Args& args) {
  Tally tally;
  std::unique_ptr<Workload> w = makeWorkload(args.workload);
  w->prepare(args.seed);
  const std::size_t perGraph = w->tasksPerGraph();

  // Untraced and traced windows, alternated so drift hits both alike.
  const double window = 0.2 * args.seconds;
  Window plain, traced;
  TraceTotals trace;
  const ats::RuntimeConfig plainCfg = runtimeConfig(kWorkers);
  for (int round = 0; round < 2; ++round) {
    {
      std::unique_ptr<ats::Runtime> rt = warmRuntime(*w, plainCfg, tally);
      const Window got = measure(*w, rt, plainCfg, window, tally);
      plain.graphSeconds += got.graphSeconds;
      plain.tasks += got.tasks;
    }
    {
      ats::Tracer tracer(kWorkers, kTraceRecordsPerStream);
      const ats::RuntimeConfig tracedCfg = runtimeConfig(kWorkers, &tracer);
      std::unique_ptr<ats::Runtime> rt = warmRuntime(*w, tracedCfg, tally);
      tracer.reset();
      // A ring must hold a whole chunk: ~2 task events per task plus
      // serve/drain/idle events, with a 3x margin.
      const std::size_t chunk =
          std::max<std::size_t>(1, kTraceRecordsPerStream / (6 * perGraph));
      const Window got = measure(*w, rt, tracedCfg, window, tally,
                                 [&](const Window& sofar) {
                                   if (sofar.graphMs.size() % chunk == 0)
                                     trace.drain(tracer);
                                 });
      rt.reset();
      if (got.graphMs.size() % chunk != 0) trace.drain(tracer);
      traced.graphSeconds += got.graphSeconds;
      traced.tasks += got.tasks;
    }
  }

  // Stamped graphs: runtime-layer spans from the benchmark's own bodies.
  StampSamples stamps;
  const TickClock clock;
  {
    std::unique_ptr<ats::Runtime> rt = warmRuntime(*w, plainCfg, tally);
    StampSamples discard;
    tally.note(w->runStamped(*rt, discard));
    for (std::size_t tasks = 0; tasks < kStampTasks;) {
      const GraphRun run = w->runStamped(*rt, stamps);
      tally.note(run);
      tasks += run.tasks;
    }
  }
  const double reservedMiB =
      static_cast<double>(ats::PoolAllocator::instance().reservedBytes()) /
      (1024.0 * 1024.0);

  const DepsReplay deps = replayDeps(w->accessStream(), kReplayTasks);
  const SchedReplay sched = replaySched(kWorkers, perGraph);
  const MemoryReplay memory = replayMemory(perGraph);
  const double nsPerTick = clock.nsPerTick();
  auto ns = [nsPerTick](std::vector<double>& v, double q) {
    return quantile(v, q) * nsPerTick;
  };

  const double e2eNs = ratio(1e9, plain.tasksPerS());
  const double layerSumNs = memory.remoteFreeNs + deps.registerNs +
                            deps.releaseNs + sched.addGetNs;
  const double unexplained = 1.0 - ratio(layerSumNs, e2eNs);
  std::printf("ledger %s memory_ns=%.1f deps_ns=%.1f sched_ns=%.1f "
              "layer_sum_ns=%.1f e2e_ns=%.1f unexplained_frac=%.3f "
              "body_ns_p50=%.1f\n",
              args.workload.c_str(), memory.remoteFreeNs,
              deps.registerNs + deps.releaseNs, sched.addGetNs, layerSumNs,
              e2eNs, unexplained, quantile(stamps.body, 0.5) * nsPerTick);

  const Metrics metrics = {
      {"runtime.spawn_ns_p50", {ns(stamps.spawn, 0.5), "ns"}},
      {"runtime.spawn_ns_p99", {ns(stamps.spawn, 0.99), "ns"}},
      {"runtime.taskwait_ns", {ns(stamps.taskwait, 0.5), "ns"}},
      {"runtime.start_lag_ns_p50", {ns(stamps.startLag, 0.5), "ns"}},
      {"runtime.start_lag_ns_p99", {ns(stamps.startLag, 0.99), "ns"}},
      {"runtime.dep_wait_ns_mean", {mean(stamps.depWait) * nsPerTick, "ns"}},
      {"runtime.body_ns_p50", {ns(stamps.body, 0.5), "ns"}},
      {"runtime.live_descriptors_peak",
       {static_cast<double>(stamps.liveDescriptorsPeak), "count"}},
      {"deps.register_ns", {deps.registerNs, "ns"}},
      {"deps.register_fresh_ns", {deps.registerFreshNs, "ns"}},
      {"deps.register_reused_ns", {deps.registerReusedNs, "ns"}},
      {"deps.release_ns", {deps.releaseNs, "ns"}},
      {"deps.ready_per_release", {deps.readyPerRelease, "count"}},
      {"sched.add_get_ns", {sched.addGetNs, "ns"}},
      {"sched.handoff_ns_p50", {sched.handoffNsP50, "ns"}},
      {"sched.empty_poll_frac", {sched.emptyPollFrac, "fraction"}},
      {"sched.idle_pct", {ratio(trace.idleWeighted, trace.spanUs), "%"}},
      {"sched.serve_batch",
       {ratio(static_cast<double>(trace.servedTasks),
              static_cast<double>(trace.serveCount)), "count"}},
      {"sched.drain_batch",
       {ratio(static_cast<double>(trace.drainedTasks),
              static_cast<double>(trace.drainCount)), "count"}},
      {"memory.alloc_free_ns", {memory.allocFreeNs, "ns"}},
      {"memory.remote_free_ns", {memory.remoteFreeNs, "ns"}},
      {"memory.reserved_mb", {reservedMiB, "MiB"}},
      {"instr.trace_overhead_frac",
       {1.0 - ratio(traced.tasksPerS(), plain.tasksPerS()), "fraction"}},
      {"ledger.layer_sum_ns", {layerSumNs, "ns"}},
      {"ledger.e2e_ns", {e2eNs, "ns"}},
      {"ledger.unexplained_frac", {unexplained, "fraction"}},
  };
  // The traced numbers count only if the tracer lost no record.
  if (trace.dropped != 0)
    std::fprintf(stderr, "perfbench: the tracer dropped %llu records\n",
                 static_cast<unsigned long long>(trace.dropped));
  printResult(tally, deps.ok && sched.ok && trace.dropped == 0, metrics);
}

// ------------------------------------------------------------ self-check

/// Each workload's graph check must pass a clean graph and reject a
/// corrupted one: a wrong dag oracle entry, a damaged cholesky answer,
/// a flood whose retired count disagrees with its spawns.
int selfCheck() {
  bool pass = true;
  for (const char* name : {"flood", "cholesky", "dag"}) {
    std::unique_ptr<Workload> w = makeWorkload(name);
    w->prepare(1);
    ats::Runtime rt(runtimeConfig(kWorkers));
    Tally tally;
    for (int g = 0; g < 4; ++g) tally.note(w->runGraph(rt, g == 2));
    const bool caught = tally.failed == 1;
    std::printf("selfcheck %-8s graphs=%zu failed=%zu failed_frac=%.2f %s\n",
                name, tally.attempted, tally.failed,
                ratio(static_cast<double>(tally.failed),
                      static_cast<double>(tally.attempted)),
                caught ? "ok (only the corrupted graph failed)" : "BROKEN");
    pass = pass && caught;
  }
  std::printf("{\"selfcheck\": %s}\n", pass ? "true" : "false");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parseArgs(argc, argv);
  refuseUnfitHost();
  // A fixed threshold turns off glibc's sliding one: otherwise, once a
  // set-up frees its 2 MiB cholesky matrix, later matrices come from the
  // heap, and whether the heap then grows by 2 MiB (peak_rss_mb) is luck.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::size_t nproc = allowedCpus();
  // The spawner gets the core after the workers' (they pin to 0..2).
  pinCallingThread(kWorkers);
  if (args.selfcheck) return selfCheck();
  std::printf("{\"host\": {\"nproc\": %zu, \"cpu_model\": %s, \"workers\": %zu, "
              "\"spawner\": 1, \"build_type\": \"%s\", \"git_sha\": %s, "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}}\n",
              nproc, jsonString(cpuModel()).c_str(), kWorkers,
              PERFBENCH_BUILD_TYPE, jsonString(args.gitSha).c_str(),
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  if (args.trace == 0) endToEnd(args);
  else perLayer(args);
  return 0;
}
