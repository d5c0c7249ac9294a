#pragma once

// Per-layer measurements, all taken from outside the library: replays of
// a workload's own traffic through each module's public entry points
// (DependencySystem, Scheduler, PoolAllocator), and the numbers the
// existing Tracer gives for a workload run.

#include <cstddef>
#include <cstdint>

#include "workloads.hpp"

namespace perfbench {

struct DepsReplay {
  double registerNs = 0;  ///< per task, the workload's own address stream
  double registerFreshNs = 0;   ///< every object never registered before
  double registerReusedNs = 0;  ///< every object already in the table
  double releaseNs = 0;         ///< per task, own stream
  double readyPerRelease = 0;   ///< tasks readied per release call
  bool ok = false;              ///< every task readied and released once
};

/// Register and release `stream`'s graphs through
/// makeDependencySystem(WaitFreeAsm) on the calling thread, registering
/// a whole graph and then releasing in ready order.
DepsReplay replayDeps(const AccessStream& stream, std::size_t tasksPerPass);

struct SchedReplay {
  double addGetNs = 0;      ///< one thread: add then get, per task
  double handoffNsP50 = 0;  ///< add on the spawner's core, get on another
  double emptyPollFrac = 0; ///< flood-shaped stream into `workers` pollers
  bool ok = false;          ///< every task handed out exactly once
};

/// Replay through makeScheduler(optimizedConfig) with the Runtime's slot
/// layout: `workers` worker slots plus the spawner's.
SchedReplay replaySched(std::size_t workers, std::size_t tasksPerGraph);

struct MemoryReplay {
  double allocFreeNs = 0;   ///< Task-sized block, allocate + free, one thread
  double remoteFreeNs = 0;  ///< allocate on the spawner + free on a worker
};

MemoryReplay replayMemory(std::size_t tasksPerGraph);

/// Pin the calling thread to `cpu` when the process may run there.
void pinCallingThread(std::size_t cpu);

}  // namespace perfbench
