#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <span>

#include "apps/app.hpp"
#include "common/timing.hpp"

namespace perfbench {

using ats::Access;
using ats::AccessMode;
using ats::Runtime;

namespace {

/// After a graph, the retired/failed/skipped counters and the live
/// descriptors must account for exactly the graph's tasks.
struct Conservation {
  explicit Conservation(const Runtime& rt)
      : retired(rt.tasksRetired()),
        failed(rt.tasksFailed()),
        skipped(rt.tasksSkipped()) {}

  bool holds(const Runtime& rt, std::size_t tasks) const {
    return rt.tasksRetired() - retired == tasks &&
           rt.tasksFailed() == failed && rt.tasksSkipped() == skipped &&
           rt.liveDescriptors() == 0;
  }

  std::uint64_t retired, failed, skipped;
};

/// Each body writes only its own cache line, so the benchmark adds no
/// false sharing of its own to what it measures.
struct alignas(64) TaskStamp {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

struct alignas(64) PaddedVersion {
  std::atomic<std::uint32_t> v{0};
};

struct alignas(64) SlotTally {
  std::uint64_t count = 0;
  std::uint64_t indexSum = 0;
};

/// `spec`'s accesses with slots mapped through `addr`, built in `out`.
std::span<const Access> accessesOf(const Spec& spec, void* const* addr,
                                   Access (&out)[kMaxAccesses]) {
  const std::size_t n = std::min<std::size_t>(spec.n, kMaxAccesses);
  for (std::size_t a = 0; a < n; ++a)
    out[a] = Access{addr[spec.acc[a].slot],
                    spec.acc[a].write ? AccessMode::InOut : AccessMode::In};
  return {out, n};
}

/// Spawn every task of `graph` with `body`, then taskwait.  Addresses
/// come from `addr` (indexed by slot).  `miscount` makes the accounting
/// check expect one task more than was spawned, so it must fail
/// (self-check).
template <typename Body>
GraphRun spawnGraph(Runtime& rt, const Graph& graph, void* const* addr,
                    const Body& body, bool miscount = false) {
  const Conservation before(rt);
  const std::uint64_t t0 = ats::nowNanos();
  for (const Spec& spec : graph.tasks) {
    Access acc[kMaxAccesses];
    rt.spawn(accessesOf(spec, addr, acc), [b = &body, s = &spec] { (*b)(*s); });
  }
  rt.taskwait();
  GraphRun run;
  run.seconds = static_cast<double>(ats::nowNanos() - t0) * 1e-9;
  run.tasks = graph.tasks.size();
  run.ok = before.holds(rt, run.tasks + (miscount ? 1 : 0));
  return run;
}

/// spawnGraph with stamps: spawner-side time per spawn call, the
/// taskwait tail, and each body's start and end.  "Ready" is the later
/// of the spawn return and the end of the last predecessor's body.
template <typename Body>
GraphRun spawnStamped(Runtime& rt, const Graph& graph, void* const* addr,
                      const Body& body, StampSamples& out) {
  const std::size_t n = graph.tasks.size();
  std::vector<TaskStamp> stamps(n);
  std::vector<std::uint64_t> spawnReturn(n);
  TaskStamp* st = stamps.data();
  const Conservation before(rt);
  const std::uint64_t t0 = ats::nowNanos();
  for (std::uint32_t t = 0; t < n; ++t) {
    const Spec& spec = graph.tasks[t];
    Access acc[kMaxAccesses];
    const std::span<const Access> accesses = accessesOf(spec, addr, acc);
    const std::uint64_t called = ats::tscNow();
    // Both stamps are stored after the body, so the miss on the stamp
    // line is not charged to it.
    rt.spawn(accesses, [b = &body, s = &spec, st, t] {
      const std::uint64_t start = ats::tscNow();
      (*b)(*s);
      const std::uint64_t end = ats::tscNow();
      st[t].start = start;
      st[t].end = end;
    });
    spawnReturn[t] = ats::tscNow();
    out.spawn.push_back(static_cast<double>(spawnReturn[t] - called));
    // Sampled sparsely: the striped counters live on worker-owned lines.
    if (t % 64 == 63)
      out.liveDescriptorsPeak =
          std::max(out.liveDescriptorsPeak, rt.liveDescriptors());
  }
  const std::uint64_t waitFrom = ats::tscNow();
  rt.taskwait();
  out.taskwait.push_back(static_cast<double>(ats::tscNow() - waitFrom));
  GraphRun run;
  run.seconds = static_cast<double>(ats::nowNanos() - t0) * 1e-9;
  run.tasks = n;
  run.ok = before.holds(rt, n);
  for (std::size_t t = 0; t < n; ++t) {
    std::uint64_t predEnd = 0;
    for (std::uint32_t p = graph.predBegin[t]; p < graph.predBegin[t + 1]; ++p)
      predEnd = std::max(predEnd, stamps[graph.predIdx[p]].end);
    const std::uint64_t ready = std::max(spawnReturn[t], predEnd);
    auto after = [](std::uint64_t a, std::uint64_t b) {
      return a > b ? static_cast<double>(a - b) : 0.0;
    };
    out.startLag.push_back(after(stamps[t].start, ready));
    out.depWait.push_back(after(predEnd, spawnReturn[t]));
    out.body.push_back(after(stamps[t].end, stamps[t].start));
  }
  return run;
}

// ---------------------------------------------------------------- flood

/// Near-empty bodies: each tallies itself into its executing slot's own
/// line (count and task index), so the graph check is "every index ran
/// exactly once in sum" without a shared line per task.
struct FloodBody {
  Runtime* rt;
  SlotTally* tally;
  const Spec* base;
  void operator()(const Spec& spec) const {
    SlotTally& mine = tally[rt->callerCpu()];
    ++mine.count;
    mine.indexSum += static_cast<std::uint64_t>(&spec - base);
  }
};

class Flood final : public Workload {
 public:
  static constexpr std::size_t kTasks = 2000;

  void prepare(std::uint64_t) override { graph_ = floodGraph(kTasks); }

  GraphRun runGraph(Runtime& rt, bool corrupt) override {
    std::vector<SlotTally> tally(rt.config().topo.numCpus + 1);
    GraphRun run = spawnGraph(rt, graph_, nullptr,
                              FloodBody{&rt, tally.data(), graph_.tasks.data()},
                              corrupt);
    run.ok = run.ok && tallied(tally, kTasks);
    return run;
  }

  GraphRun runStamped(Runtime& rt, StampSamples& out) override {
    std::vector<SlotTally> tally(rt.config().topo.numCpus + 1);
    GraphRun run = spawnStamped(rt, graph_, nullptr,
                                FloodBody{&rt, tally.data(), graph_.tasks.data()},
                                out);
    run.ok = run.ok && tallied(tally, kTasks);
    return run;
  }

  AccessStream accessStream() const override { return {{&graph_}, 0}; }
  std::size_t tasksPerGraph() const override { return kTasks; }

 private:
  static bool tallied(const std::vector<SlotTally>& tally, std::size_t tasks) {
    std::uint64_t count = 0, sum = 0;
    for (const SlotTally& t : tally) {
      count += t.count;
      sum += t.indexSum;
    }
    return count == tasks && sum == tasks * (tasks - 1) / 2;
  }

  Graph graph_;
};

// ------------------------------------------------------------------ dag

/// Each access checks the object's version against the serial oracle;
/// a write then advances it.
struct DagBody {
  PaddedVersion* versions;
  std::atomic<std::uint32_t>* mismatches;
  void operator()(const Spec& spec) const {
    for (std::size_t a = 0; a < spec.n; ++a) {
      const Acc& acc = spec.acc[a];
      std::atomic<std::uint32_t>& v = versions[acc.slot].v;
      if (v.load(std::memory_order_relaxed) != acc.expected)
        mismatches->fetch_add(1, std::memory_order_relaxed);
      if (acc.write) v.store(acc.expected + 1, std::memory_order_relaxed);
    }
  }
};

class Dag final : public Workload {
 public:
  static constexpr std::size_t kTasks = 4096;
  static constexpr std::size_t kSlots = 1024;
  static constexpr std::size_t kReused = kSlots / 2;
  static constexpr std::size_t kShapes = 16;

  void prepare(std::uint64_t seed) override {
    Rng rng(seed);
    shapes_.clear();
    for (std::size_t s = 0; s < kShapes; ++s)
      shapes_.push_back(dagGraph(rng.next(), kTasks, kSlots));
    char* reused = AddressWindow::instance().take(kReused);
    addr_.assign(kSlots, nullptr);
    for (std::size_t s = 0; s < kReused; ++s)
      addr_[s] = reused + s * AddressWindow::kStride;
    versions_ = std::make_unique<PaddedVersion[]>(kSlots);
  }

  GraphRun runGraph(Runtime& rt, bool corrupt) override {
    const Graph& shape = nextShape();
    if (!corrupt) return run(rt, shape, nullptr);
    Graph wrong = shape;
    wrong.tasks[kTasks / 2].acc[0].expected += 1;
    return run(rt, wrong, nullptr);
  }

  GraphRun runStamped(Runtime& rt, StampSamples& out) override {
    return run(rt, nextShape(), &out);
  }

  AccessStream accessStream() const override {
    AccessStream stream;
    for (const Graph& g : shapes_) stream.graphs.push_back(&g);
    stream.freshFrom = kReused;
    return stream;
  }

  std::size_t tasksPerGraph() const override { return kTasks; }

  /// The dependency table keeps every address it has seen, so graphs
  /// slow down and memory grows for as long as one Runtime lives.  Each
  /// Runtime runs this many graphs, so every run measures the same
  /// growth profile whatever its length or speed.
  std::size_t graphsPerRuntime() const override { return 64; }

 private:
  /// Next shape in the cycle, with this graph's never-registered half
  /// of the object pool.
  const Graph& nextShape() {
    char* fresh = AddressWindow::instance().take(kSlots - kReused);
    for (std::size_t s = kReused; s < kSlots; ++s)
      addr_[s] = fresh + (s - kReused) * AddressWindow::kStride;
    return shapes_[graphs_++ % kShapes];
  }

  GraphRun run(Runtime& rt, const Graph& graph, StampSamples* stamped) {
    for (std::size_t s = 0; s < kSlots; ++s)
      versions_[s].v.store(0, std::memory_order_relaxed);
    std::atomic<std::uint32_t> mismatches{0};
    const DagBody body{versions_.get(), &mismatches};
    GraphRun result = stamped != nullptr
                          ? spawnStamped(rt, graph, addr_.data(), body, *stamped)
                          : spawnGraph(rt, graph, addr_.data(), body);
    bool finals = true;
    for (std::size_t s = 0; s < kSlots; ++s)
      finals = finals && versions_[s].v.load(std::memory_order_relaxed) ==
                             graph.finalVersion[s];
    result.ok = result.ok && finals && mismatches.load() == 0;
    return result;
  }

  std::vector<Graph> shapes_;
  std::vector<void*> addr_;
  std::unique_ptr<PaddedVersion[]> versions_;
  std::size_t graphs_ = 0;
};

// ------------------------------------------------------------- cholesky

/// Tile kernels of the apps-layer Cholesky, on the benchmark's own
/// matrix, for the stamped run (the app's bodies cannot be stamped from
/// outside).  Any schedule the dependencies allow gives the bit-exact
/// program-order result, which is the stamped run's check.
struct TileBody {
  double* m;
  std::size_t n, bs;
  double& at(std::size_t r, std::size_t c) const { return m[r * n + c]; }
  void operator()(const Spec& s) const {
    const std::size_t ok = s.k * bs, oi = s.i * bs, oj = s.j * bs;
    switch (s.kernel) {
      case Kernel::Potrf:
        for (std::size_t c = 0; c < bs; ++c) {
          const double pivot = std::sqrt(at(ok + c, ok + c));
          at(ok + c, ok + c) = pivot;
          for (std::size_t r = c + 1; r < bs; ++r) at(ok + r, ok + c) /= pivot;
          for (std::size_t j = c + 1; j < bs; ++j)
            for (std::size_t r = j; r < bs; ++r)
              at(ok + r, ok + j) -= at(ok + r, ok + c) * at(ok + j, ok + c);
        }
        break;
      case Kernel::Trsm:
        for (std::size_t r = 0; r < bs; ++r)
          for (std::size_t c = 0; c < bs; ++c) {
            double x = at(oi + r, ok + c);
            for (std::size_t q = 0; q < c; ++q)
              x -= at(oi + r, ok + q) * at(ok + c, ok + q);
            at(oi + r, ok + c) = x / at(ok + c, ok + c);
          }
        break;
      case Kernel::Syrk:
      case Kernel::Gemm:
        for (std::size_t r = 0; r < bs; ++r)
          for (std::size_t c = 0; c < (s.kernel == Kernel::Syrk ? r + 1 : bs);
               ++c) {
            double x = at(oi + r, oj + c);
            for (std::size_t q = 0; q < bs; ++q)
              x -= at(oi + r, ok + q) * at(oj + c, ok + q);
            at(oi + r, oj + c) = x;
          }
        break;
      case Kernel::None:
        break;
    }
  }
};

class Cholesky final : public Workload {
 public:
  static constexpr std::size_t kBlock = 16;

  void prepare(std::uint64_t) override {
    app_ = ats::makeApp("cholesky", ats::AppScale::Full);
    app_->ensureSerial();
    graph_ = choleskyGraph(kN / kBlock);
    // The app's input matrix, rebuilt for the stamped run.
    a0_.resize(kN * kN);
    for (std::size_t i = 0; i < kN; ++i)
      for (std::size_t j = 0; j < kN; ++j) {
        const double d = static_cast<double>(i > j ? i - j : j - i);
        a0_[i * kN + j] =
            1.0 / (1.0 + d) + (i == j ? static_cast<double>(kN) : 0.0);
      }
    reference_ = a0_;
    const TileBody serial{reference_.data(), kN, kBlock};
    for (const Spec& spec : graph_.tasks) serial(spec);
    matrix_.resize(kN * kN);
    tileAddr_.resize(graph_.numSlots);
    const std::size_t nt = kN / kBlock;
    for (std::size_t r = 0; r < nt; ++r)
      for (std::size_t c = 0; c < nt; ++c)
        tileAddr_[r * nt + c] = &matrix_[r * kBlock * kN + c * kBlock];
  }

  GraphRun runGraph(Runtime& rt, bool corrupt) override {
    app_->initParallel(kBlock);
    const Conservation before(rt);
    const std::uint64_t t0 = ats::nowNanos();
    GraphRun run;
    run.tasks = app_->runParallel(rt, kBlock);
    run.seconds = static_cast<double>(ats::nowNanos() - t0) * 1e-9;
    if (corrupt) app_->corruptOutput();
    run.ok = before.holds(rt, run.tasks) && app_->verify().ok;
    return run;
  }

  GraphRun runStamped(Runtime& rt, StampSamples& out) override {
    matrix_ = a0_;
    GraphRun run = spawnStamped(rt, graph_, tileAddr_.data(),
                                TileBody{matrix_.data(), kN, kBlock}, out);
    run.ok = run.ok && std::memcmp(matrix_.data(), reference_.data(),
                                   kN * kN * sizeof(double)) == 0;
    return run;
  }

  AccessStream accessStream() const override {
    return {{&graph_}, graph_.numSlots};
  }

  std::size_t tasksPerGraph() const override { return graph_.tasks.size(); }

 private:
  static constexpr std::size_t kN = 512;  // AppScale::Full

  std::unique_ptr<ats::App> app_;
  Graph graph_;
  std::vector<double> a0_, reference_, matrix_;
  std::vector<void*> tileAddr_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "flood") return std::make_unique<Flood>();
  if (name == "dag") return std::make_unique<Dag>();
  if (name == "cholesky") return std::make_unique<Cholesky>();
  return nullptr;
}

bool isWorkload(const std::string& name) { return makeWorkload(name) != nullptr; }

}  // namespace perfbench
