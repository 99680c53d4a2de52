// Helpers shared by the standalone benchmark runners (bench_storage,
// bench_service, bench_live): wall-clock deltas, the escaping used by
// their BENCH_*.json emitters, and the host-shape block every snapshot
// carries so numbers from different machines are never compared blind.
#ifndef BINCHAIN_BENCH_BENCH_UTIL_H_
#define BINCHAIN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace binchain {
namespace bench {

inline double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// First `model name` line from /proc/cpuinfo, or "unknown" off-Linux.
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      size_t start = line.find_first_not_of(" \t", colon + 1);
      if (start == std::string::npos) break;
      return line.substr(start);
    }
  }
  return "unknown";
}

/// Calibrated spin test: the same fixed amount of integer work is run on
/// one thread, then on every hardware thread at once; the ratio of wall
/// times is the number of cores the run actually got. `nproc` alone says
/// nothing about a container whose host is oversubscribed.
inline double EffectiveCores() {
  static std::atomic<uint64_t> sink{0};
  auto spin = [](uint64_t iters) {
    uint64_t x = 1;
    for (uint64_t i = 0; i < iters; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink.fetch_xor(x, std::memory_order_relaxed);
  };
  auto seconds = [](auto fn) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  uint64_t iters = 1 << 20;
  while (seconds([&] { spin(iters); }) < 0.005) iters *= 2;
  iters *= 4;  // about 20 ms of single-thread work
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  // Best of three: a neighbour's burst should not read as a lost core.
  double best = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const double one = seconds([&] { spin(iters); });
    const double all = seconds([&] {
      std::vector<std::thread> threads;
      for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([&] { spin(iters); });
      }
      for (std::thread& t : threads) t.join();
    });
    if (all > 0) best = std::max(best, n * one / all);
  }
  return std::min(static_cast<double>(n), best);
}

/// Host-shape block for the BENCH_*.json emitters:
/// {"nproc": N, "cpu": "<model>", "effective_cores": X}. The regression
/// gate never fails on it; check_regression.py warns when the baseline's
/// host differs from the current run's (model, nproc, or effective cores
/// by more than 25%), so a human reading two snapshots knows whether the
/// hardware, or the parallelism it delivered, moved.
inline std::string HostJson() {
  char cores[32];
  std::snprintf(cores, sizeof(cores), "%.2f", EffectiveCores());
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + JsonEscape(CpuModel()) +
         "\", \"effective_cores\": " + cores + "}";
}

}  // namespace bench
}  // namespace binchain

#endif  // BINCHAIN_BENCH_BENCH_UTIL_H_
