#pragma once

// The three workloads.  Each one spawns whole graphs on a Runtime (spawn
// everything, then taskwait) and checks every graph's answer; the same
// graphs, with bodies that stamp themselves, give the runtime-layer
// numbers, and their access streams feed the dependency replay.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

/// One graph: wall time from the first spawn to the return of taskwait,
/// tasks spawned, and whether every check passed.
struct GraphRun {
  double seconds = 0;
  std::size_t tasks = 0;
  bool ok = false;
};

/// Per-task samples of stamped graphs, in ticks (TickClock rescales).
struct StampSamples {
  std::vector<double> spawn, startLag, depWait, body, taskwait;
  std::size_t liveDescriptorsPeak = 0;
};

/// How the dependency replay maps a graph's slots to addresses.  Slots
/// below `freshFrom` keep one address for the whole run; the others get
/// never-registered addresses every graph (the dag's moving window).
struct AccessStream {
  std::vector<const Graph*> graphs;  ///< cycled, one per replayed graph
  std::uint32_t freshFrom = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the inputs from `seed` and compute the serial reference.
  virtual void prepare(std::uint64_t seed) = 0;

  /// Spawn one graph, taskwait, and check it.  `corrupt` damages the
  /// oracle, the output or the expected task count first, so the check
  /// must fail (self-check).
  virtual GraphRun runGraph(ats::Runtime& rt, bool corrupt = false) = 0;

  /// The same graph shape with self-stamping bodies; appends samples.
  virtual GraphRun runStamped(ats::Runtime& rt, StampSamples& out) = 0;

  virtual AccessStream accessStream() const = 0;

  /// Tasks in one graph (fixed per workload).
  virtual std::size_t tasksPerGraph() const = 0;

  /// Graphs one Runtime runs before the measurement replaces it with a
  /// new one; 0 keeps one Runtime for the whole window.
  virtual std::size_t graphsPerRuntime() const { return 0; }
};

std::unique_ptr<Workload> makeWorkload(const std::string& name);
bool isWorkload(const std::string& name);

}  // namespace perfbench
