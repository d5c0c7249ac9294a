#pragma once

// Task graphs as the benchmark sees them: one program-ordered list of
// task specs per graph, plus the serial oracle computed once at set-up
// (the object version each access must observe, each task's
// predecessors, each object's final version).  The workloads spawn these
// graphs on a Runtime; the layer replays feed the same access streams
// to the dependency system directly.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMaxAccesses = 4;

/// One declared access: the object is a slot of the graph's object pool
/// (the workload maps slots to addresses), `expected` is the number of
/// writes the serial order performs on that slot before this access.
struct Acc {
  std::uint32_t slot = 0;
  std::uint32_t expected = 0;
  bool write = false;
};

enum class Kernel : std::uint8_t { None, Potrf, Trsm, Syrk, Gemm };

struct Spec {
  std::uint8_t n = 0;
  Kernel kernel = Kernel::None;
  std::uint16_t k = 0, i = 0, j = 0;  ///< tile coordinates (cholesky)
  Acc acc[kMaxAccesses];
};

struct Graph {
  std::vector<Spec> tasks;
  std::uint32_t numSlots = 0;
  /// Predecessors of task t: predIdx[predBegin[t] .. predBegin[t + 1]).
  /// A read follows the last write of its object; a write follows the
  /// last write and every read since.
  std::vector<std::uint32_t> predBegin, predIdx;
  std::vector<std::uint32_t> finalVersion;  ///< per slot, after the graph
};

/// Fill in `expected`, the predecessor lists and the final versions by
/// walking the graph in program order.
void finalize(Graph& graph);

/// `tasks` independent tasks with no accesses.
Graph floodGraph(std::size_t tasks);

/// Seeded random DAG: `tasks` tasks of 1-4 distinct accesses each over
/// `slots` objects, each access `in` or `inout` with equal odds.
Graph dagGraph(std::uint64_t seed, std::size_t tasks, std::size_t slots);

/// The tiled right-looking Cholesky of an nt x nt tile matrix, in the
/// apps layer's spawn order (potrf, trsm column, syrk + gemm trailing
/// update).  Slot of tile (r, c) is r * nt + c.
Graph choleskyGraph(std::size_t nt);

/// splitmix64: the benchmark's one deterministic random source.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Dependency-object keys that no allocation can ever alias: addresses
/// inside one PROT_NONE reservation, handed out in a forward-only
/// stream with a cache-line stride.  The runtime only hashes these
/// addresses; nothing dereferences them.  A fresh block has never been
/// registered with any dependency system in the process.
class AddressWindow {
 public:
  static AddressWindow& instance();
  /// Base of `count` consecutive never-used keys; key k is
  /// `base + k * kStride`.  Aborts when the reservation is used up.
  char* take(std::size_t count);
  static constexpr std::size_t kStride = 64;

 private:
  AddressWindow();
  char* base_;
  std::size_t used_ = 0;
  std::size_t capacity_;
};

/// Raw tick stamps for the hot path, rescaled to nanoseconds against
/// the steady clock over the span from construction to `nsPerTick()`.
class TickClock {
 public:
  TickClock();
  double nsPerTick() const;

 private:
  std::uint64_t tick0_, ns0_;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); sorts them.
double quantile(std::vector<double>& values, double q);

}  // namespace perfbench
