// Result plumbing for bench_e2e: exact percentiles over raw samples, the
// metric table every run prints, and the host probes (peak RSS, block-layer
// write bytes, effective parallelism).
#ifndef BINCHAIN_E2EBENCH_REPORT_H_
#define BINCHAIN_E2EBENCH_REPORT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

/// Nearest-rank percentile (q in [0, 1]) of raw samples; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Everything one run reports: metrics keyed by name, each with its unit.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;  // context: sample counts, budgets
  std::vector<std::string> errors;     // first few failures and mismatches
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  bool checks_ok = true;  // oracle, recovery and setup checks

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& msg) {
    if (errors.size() < 16) errors.push_back(msg);
  }
  void Wrong(const std::string& msg) {
    ++wrong;
    Note("wrong answer: " + msg);
  }
  void CheckFailed(const std::string& msg) {
    checks_ok = false;
    Note(msg);
  }
  bool ok() const { return wrong == 0 && checks_ok; }
};

/// Peak resident set (VmHWM) in MiB, or 0 off Linux.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Restarts the VmHWM watermark at the current resident set, so PeakRssMb
/// covers only what runs from here on.
inline void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

/// Bytes this process caused to be sent to the block layer so far
/// (`write_bytes` of /proc/self/io), or 0 when unavailable.
inline uint64_t ProcWriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

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
  unsigned n = std::max(1u, std::thread::hardware_concurrency());
  // Best of three: a neighbour's burst should not read as a lost core.
  double best = 0;
  for (int trial = 0; trial < 3; ++trial) {
    double one = seconds([&] { spin(iters); });
    double all = seconds([&] {
      std::vector<std::thread> threads;
      for (unsigned i = 0; i < n; ++i) threads.emplace_back([&] { spin(iters); });
      for (std::thread& t : threads) t.join();
    });
    if (all > 0) best = std::max(best, n * one / all);
  }
  return std::min(static_cast<double>(n), best);
}

}  // namespace e2e

#endif  // BINCHAIN_E2EBENCH_REPORT_H_
