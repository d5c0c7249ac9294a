#include "layers.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/timing.hpp"
#include "deps/dependency_system.hpp"
#include "locks/locks.hpp"
#include "memory/pool_allocator.hpp"
#include "runtime/runtime_config.hpp"
#include "runtime/scheduler_factory.hpp"
#include "runtime/task.hpp"

namespace perfbench {

void pinCallingThread(std::size_t cpu) {
  // Threads inherit their creator's mask, so remember the process's
  // own mask from the first call (made by main before it pins itself).
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  if (cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

namespace {

double perItemNs(std::uint64_t ns, std::size_t items) {
  return static_cast<double>(ns) / static_cast<double>(items);
}

// ----------------------------------------------------------------- deps

struct ReadyLog {
  std::vector<ats::DepTask*> ready;
  static void onReady(void* ctx, ats::DepTask* task, std::size_t) {
    static_cast<ReadyLog*>(ctx)->ready.push_back(task);
  }
};

enum class Addresses { Own, Fresh, Reused };

struct DepsPass {
  std::vector<double> registerNs, releaseNs;
  std::size_t readiedByRelease = 0, released = 0;
  bool ok = true;
};

/// One dependency system, `graphs` timed graphs after one untimed
/// warm-up graph.  Per graph: arm each descriptor's execution reference
/// (the Runtime's allocation step), register every task in program
/// order, then release in ready order, then the quiescent reset.
DepsPass depsPass(const AccessStream& stream, Addresses mode,
                  std::size_t graphs) {
  ReadyLog log;
  auto deps = ats::makeDependencySystem(ats::DepsKind::WaitFreeAsm,
                                        ats::ReadySink{&ReadyLog::onReady, &log});
  std::size_t maxTasks = 0;
  std::uint32_t slots = 0;
  for (const Graph* g : stream.graphs) {
    maxTasks = std::max(maxTasks, g->tasks.size());
    slots = std::max(slots, g->numSlots);
  }
  auto tasks = std::make_unique<ats::DepTask[]>(std::max<std::size_t>(maxTasks, 1));
  std::vector<ats::Access> acc(maxTasks * kMaxAccesses);
  std::vector<void*> addr(slots);
  char* fixed = AddressWindow::instance().take(slots);
  for (std::uint32_t s = 0; s < slots; ++s)
    addr[s] = fixed + s * AddressWindow::kStride;
  const std::uint32_t freshFrom = mode == Addresses::Own      ? stream.freshFrom
                                  : mode == Addresses::Fresh ? 0
                                                             : slots;
  DepsPass pass;
  for (std::size_t g = 0; g <= graphs; ++g) {
    const Graph& graph = *stream.graphs[g % stream.graphs.size()];
    const std::size_t n = graph.tasks.size();
    if (freshFrom < slots) {
      char* fresh = AddressWindow::instance().take(slots - freshFrom);
      for (std::uint32_t s = freshFrom; s < slots; ++s)
        addr[s] = fresh + (s - freshFrom) * AddressWindow::kStride;
    }
    for (std::size_t t = 0; t < n; ++t) {
      const Spec& spec = graph.tasks[t];
      for (std::size_t a = 0; a < spec.n; ++a)
        acc[t * kMaxAccesses + a] =
            ats::Access{addr[spec.acc[a].slot], spec.acc[a].write
                                                    ? ats::AccessMode::InOut
                                                    : ats::AccessMode::In};
      tasks[t].refCount.store(1, std::memory_order_relaxed);
    }
    log.ready.clear();
    log.ready.reserve(n);
    const std::uint64_t t0 = ats::nowNanos();
    for (std::size_t t = 0; t < n; ++t)
      deps->registerTask(&tasks[t], &acc[t * kMaxAccesses], graph.tasks[t].n, 0);
    const std::uint64_t t1 = ats::nowNanos();
    const std::size_t readyAtRegistration = log.ready.size();
    std::size_t head = 0;
    while (head < log.ready.size()) {
      ats::DepTask* task = log.ready[head++];
      deps->release(task, 0);
      task->dropRef();
    }
    const std::uint64_t t2 = ats::nowNanos();
    pass.ok = pass.ok && head == n;
    deps->reset();
    if (g == 0) continue;
    pass.registerNs.push_back(perItemNs(t1 - t0, n));
    pass.releaseNs.push_back(perItemNs(t2 - t1, n));
    pass.readiedByRelease += head - readyAtRegistration;
    pass.released += head;
  }
  return pass;
}

}  // namespace

DepsReplay replayDeps(const AccessStream& stream, std::size_t tasksPerPass) {
  const std::size_t perGraph = stream.graphs.front()->tasks.size();
  const std::size_t graphs = (tasksPerPass + perGraph - 1) / perGraph;
  DepsPass own = depsPass(stream, Addresses::Own, graphs);
  DepsPass fresh = depsPass(stream, Addresses::Fresh, graphs);
  DepsPass reused = depsPass(stream, Addresses::Reused, graphs);
  DepsReplay r;
  r.registerNs = quantile(own.registerNs, 0.5);
  r.releaseNs = quantile(own.releaseNs, 0.5);
  r.registerFreshNs = quantile(fresh.registerNs, 0.5);
  r.registerReusedNs = quantile(reused.registerNs, 0.5);
  r.readyPerRelease = static_cast<double>(own.readiedByRelease) /
                      static_cast<double>(std::max<std::size_t>(own.released, 1));
  r.ok = own.ok && fresh.ok && reused.ok;
  return r;
}

// ---------------------------------------------------------------- sched

namespace {

struct alignas(64) PollCount {
  std::uint64_t polls = 0;
  std::uint64_t empty = 0;
};

}  // namespace

SchedReplay replaySched(std::size_t workers, std::size_t tasksPerGraph) {
  ats::RuntimeConfig cfg =
      ats::optimizedConfig(ats::makeTopology(ats::MachinePreset::Host, workers));
  cfg.topo.reservedSlots += 1;  // the Runtime's spawner slot
  const std::size_t spawner = workers;
  auto pool = std::make_unique<ats::Task[]>(tasksPerGraph);
  SchedReplay r;
  r.ok = true;

  {  // Single-thread round trip on the spawner's slot.
    auto sched = ats::makeScheduler(cfg);
    constexpr std::size_t kRounds = 64;
    std::vector<double> perRound;
    for (std::size_t round = 0; round <= kRounds; ++round) {
      const std::uint64_t t0 = ats::nowNanos();
      for (std::size_t i = 0; i < tasksPerGraph; ++i) {
        sched->addReadyTask(&pool[i], spawner);
        r.ok = r.ok && sched->getReadyTask(spawner) == &pool[i];
      }
      if (round > 0)
        perRound.push_back(perItemNs(ats::nowNanos() - t0, tasksPerGraph));
    }
    r.addGetNs = quantile(perRound, 0.5);
  }

  {  // Ping-pong: one task in flight, spawner core -> worker 0's core.
    auto sched = ats::makeScheduler(cfg);
    constexpr std::size_t kPings = 20000;
    const TickClock clock;
    std::vector<std::uint64_t> sentAt(tasksPerGraph);
    std::vector<double> latency(kPings);
    std::atomic<std::size_t> received{0};
    std::thread consumer([&] {
      pinCallingThread(0);
      for (std::size_t k = 0; k < kPings;) {
        ats::Task* task = sched->getReadyTask(0);
        if (task == nullptr) {
          ats::cpuRelax();
          continue;
        }
        latency[k] = static_cast<double>(ats::tscNow() -
                                         sentAt[static_cast<std::size_t>(task - pool.get())]);
        received.store(++k, std::memory_order_release);
      }
    });
    for (std::size_t k = 0; k < kPings; ++k) {
      const std::size_t i = k % tasksPerGraph;
      sentAt[i] = ats::tscNow();
      sched->addReadyTask(&pool[i], spawner);
      while (received.load(std::memory_order_acquire) != k + 1) ats::cpuRelax();
    }
    consumer.join();
    r.handoffNsP50 = quantile(latency, 0.5) * clock.nsPerTick();
  }

  {  // Flood-shaped stream: the spawner adds graphs of tasksPerGraph,
     // helping like taskwait does; every worker slot polls.
    auto sched = ats::makeScheduler(cfg);
    constexpr std::size_t kGraphs = 50;
    std::atomic<std::size_t> consumed{0};
    std::atomic<bool> stop{false};
    std::vector<PollCount> counts(workers + 1);
    auto poll = [&](std::size_t slot, ats::SpinWait& wait) {
      ++counts[slot].polls;
      if (sched->getReadyTask(slot) != nullptr) {
        consumed.fetch_add(1, std::memory_order_relaxed);
        wait.reset();
      } else {
        ++counts[slot].empty;
        wait.spin();
      }
    };
    std::vector<std::thread> pollers;
    for (std::size_t w = 0; w < workers; ++w) {
      pollers.emplace_back([&, w] {
        pinCallingThread(w);
        ats::SpinWait wait;
        while (!stop.load(std::memory_order_acquire)) poll(w, wait);
      });
    }
    for (std::size_t g = 0; g < kGraphs; ++g) {
      for (std::size_t i = 0; i < tasksPerGraph; ++i)
        sched->addReadyTask(&pool[i], spawner);
      ats::SpinWait wait;
      while (consumed.load(std::memory_order_acquire) < (g + 1) * tasksPerGraph)
        poll(spawner, wait);
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : pollers) t.join();
    r.ok = r.ok && consumed.load() == kGraphs * tasksPerGraph;
    std::uint64_t polls = 0, empty = 0;
    for (const PollCount& c : counts) {
      polls += c.polls;
      empty += c.empty;
    }
    r.emptyPollFrac = static_cast<double>(empty) / static_cast<double>(polls);
  }
  return r;
}

// --------------------------------------------------------------- memory

MemoryReplay replayMemory(std::size_t tasksPerGraph) {
  ats::PoolAllocator& pool = ats::PoolAllocator::instance();
  constexpr std::size_t kRounds = 64;
  constexpr std::size_t kSize = sizeof(ats::Task);
  std::vector<void*> blocks(tasksPerGraph);
  MemoryReplay r;

  std::vector<double> same;
  for (std::size_t round = 0; round <= kRounds; ++round) {
    const std::uint64_t t0 = ats::nowNanos();
    for (void*& b : blocks) b = pool.allocate(kSize);
    for (void* b : blocks) pool.deallocate(b, kSize);
    if (round > 0) same.push_back(perItemNs(ats::nowNanos() - t0, blocks.size()));
  }
  r.allocFreeNs = quantile(same, 0.5);

  // Allocate a graph's worth on the spawner, free it on worker 0's core.
  std::atomic<std::size_t> handed{0}, freed{0};
  std::vector<std::uint64_t> freeNs(kRounds + 1);
  std::thread worker([&] {
    pinCallingThread(0);
    for (std::size_t round = 1; round <= kRounds + 1; ++round) {
      while (handed.load(std::memory_order_acquire) != round) ats::cpuRelax();
      const std::uint64_t t0 = ats::nowNanos();
      for (void* b : blocks) pool.deallocate(b, kSize);
      freeNs[round - 1] = ats::nowNanos() - t0;
      freed.store(round, std::memory_order_release);
    }
  });
  std::vector<double> remote;
  for (std::size_t round = 1; round <= kRounds + 1; ++round) {
    const std::uint64_t t0 = ats::nowNanos();
    for (void*& b : blocks) b = pool.allocate(kSize);
    const std::uint64_t allocNs = ats::nowNanos() - t0;
    handed.store(round, std::memory_order_release);
    while (freed.load(std::memory_order_acquire) != round) ats::cpuRelax();
    if (round > 1)
      remote.push_back(perItemNs(allocNs + freeNs[round - 1], blocks.size()));
  }
  worker.join();
  r.remoteFreeNs = quantile(remote, 0.5);
  return r;
}

}  // namespace perfbench
