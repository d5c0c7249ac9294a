#include "graph.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "common/timing.hpp"

namespace perfbench {

void finalize(Graph& graph) {
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> version(graph.numSlots, 0);
  std::vector<std::uint32_t> lastWriter(graph.numSlots, kNone);
  std::vector<std::vector<std::uint32_t>> readers(graph.numSlots);
  graph.predBegin.assign(1, 0);
  graph.predIdx.clear();
  for (std::uint32_t t = 0; t < graph.tasks.size(); ++t) {
    Spec& spec = graph.tasks[t];
    for (std::size_t a = 0; a < spec.n; ++a) {
      Acc& acc = spec.acc[a];
      acc.expected = version[acc.slot];
      if (lastWriter[acc.slot] != kNone)
        graph.predIdx.push_back(lastWriter[acc.slot]);
      if (acc.write) {
        for (std::uint32_t r : readers[acc.slot]) graph.predIdx.push_back(r);
        readers[acc.slot].clear();
        lastWriter[acc.slot] = t;
        ++version[acc.slot];
      } else {
        readers[acc.slot].push_back(t);
      }
    }
    graph.predBegin.push_back(static_cast<std::uint32_t>(graph.predIdx.size()));
  }
  graph.finalVersion = std::move(version);
}

Graph floodGraph(std::size_t tasks) {
  Graph graph;
  graph.tasks.resize(tasks);
  finalize(graph);
  return graph;
}

Graph dagGraph(std::uint64_t seed, std::size_t tasks, std::size_t slots) {
  Rng rng(seed);
  Graph graph;
  graph.numSlots = static_cast<std::uint32_t>(slots);
  graph.tasks.resize(tasks);
  for (Spec& spec : graph.tasks) {
    spec.n = static_cast<std::uint8_t>(1 + rng.below(kMaxAccesses));
    for (std::size_t a = 0; a < spec.n; ++a) {
      std::uint32_t slot;
      bool distinct;
      do {
        slot = static_cast<std::uint32_t>(rng.below(slots));
        distinct = std::none_of(spec.acc, spec.acc + a, [slot](const Acc& x) {
          return x.slot == slot;
        });
      } while (!distinct);
      spec.acc[a].slot = slot;
      spec.acc[a].write = rng.below(2) == 1;
    }
  }
  finalize(graph);
  return graph;
}

Graph choleskyGraph(std::size_t nt) {
  Graph graph;
  graph.numSlots = static_cast<std::uint32_t>(nt * nt);
  auto slot = [nt](std::size_t r, std::size_t c) {
    return static_cast<std::uint32_t>(r * nt + c);
  };
  auto add = [&graph](Kernel kernel, std::size_t k, std::size_t i,
                      std::size_t j, std::initializer_list<Acc> accs) {
    Spec spec;
    spec.kernel = kernel;
    spec.k = static_cast<std::uint16_t>(k);
    spec.i = static_cast<std::uint16_t>(i);
    spec.j = static_cast<std::uint16_t>(j);
    for (const Acc& acc : accs) spec.acc[spec.n++] = acc;
    graph.tasks.push_back(spec);
  };
  for (std::size_t k = 0; k < nt; ++k) {
    add(Kernel::Potrf, k, k, k, {{slot(k, k), 0, true}});
    for (std::size_t i = k + 1; i < nt; ++i)
      add(Kernel::Trsm, k, i, k, {{slot(k, k), 0, false}, {slot(i, k), 0, true}});
    for (std::size_t i = k + 1; i < nt; ++i) {
      add(Kernel::Syrk, k, i, i, {{slot(i, k), 0, false}, {slot(i, i), 0, true}});
      for (std::size_t j = k + 1; j < i; ++j)
        add(Kernel::Gemm, k, i, j,
            {{slot(i, k), 0, false}, {slot(j, k), 0, false},
             {slot(i, j), 0, true}});
    }
  }
  finalize(graph);
  return graph;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

AddressWindow& AddressWindow::instance() {
  static AddressWindow window;
  return window;
}

AddressWindow::AddressWindow() : capacity_(std::size_t{1} << 36) {
  void* base = ::mmap(nullptr, capacity_, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    std::fprintf(stderr, "perfbench: cannot reserve the address window\n");
    std::exit(2);
  }
  base_ = static_cast<char*>(base);
}

char* AddressWindow::take(std::size_t count) {
  const std::size_t bytes = count * kStride;
  if (bytes > capacity_ - used_) {
    std::fprintf(stderr, "perfbench: address window exhausted\n");
    std::exit(2);
  }
  char* block = base_ + used_;
  used_ += bytes;
  return block;
}

TickClock::TickClock() : tick0_(ats::tscNow()), ns0_(ats::nowNanos()) {}

double TickClock::nsPerTick() const {
  const std::uint64_t ticks = ats::tscNow() - tick0_;
  const std::uint64_t ns = ats::nowNanos() - ns0_;
  return ticks == 0 ? 1.0 : static_cast<double>(ns) / static_cast<double>(ticks);
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
