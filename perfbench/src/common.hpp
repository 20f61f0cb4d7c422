// Shared pieces of the end-to-end benchmark: sample statistics, the metric
// list every phase appends to, the failure ledger behind `error_ratio`, and
// the corpus manifest the fixture writes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace perfbench {

/// Seconds on the steady clock; every span in the benchmark uses this.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of all threads of this process. Under paravirtual steal
/// accounting it leaves out the time the hypervisor took the vCPUs away.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Time the hypervisor has stolen from this machine's vCPUs so far, summed
/// over them: the `steal` column of /proc/stat, or 0 where there is none.
/// It is machine-wide; the measuring process is what runs while it counts.
inline double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  if (!(in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return 0.0;
  }
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Times a span by the wall clock, and also with the host's steal taken out.
///
/// On a shared host the hypervisor takes the vCPUs away in episodes of
/// seconds to minutes, which slow everything inside them up to fourfold; a
/// run that falls into one would measure the neighbours, not the program.
/// The span's threads ran for `cpu` of the `cpu + steal` seconds they
/// wanted, so without steal it would have taken that share of its wall
/// time. Where nothing is stolen, unstolen_s() is the wall time.
class SpanClock {
 public:
  SpanClock()
      : cpu_(process_cpu_s()), steal_(host_steal_s()), wall_(now_s()) {}

  /// Stops the clock; call once.
  void stop() {
    wall_ = now_s() - wall_;
    cpu_ = process_cpu_s() - cpu_;
    steal_ = host_steal_s() - steal_;
  }

  [[nodiscard]] double wall_s() const { return wall_; }
  [[nodiscard]] double cpu_s() const { return cpu_; }
  [[nodiscard]] double steal_s() const { return steal_; }
  [[nodiscard]] double unstolen_s() const {
    const double wanted = cpu_ + steal_;
    return wanted > 0 ? wall_ * cpu_ / wanted : wall_;
  }

 private:
  double cpu_;
  double steal_;
  double wall_;
};

/// Linear-interpolated quantile `q` in [0, 1] of `values` (copied).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// One reported figure: name, value and unit, as the result line prints it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed over a run. A failed operation is a
/// transport error or an output that fails a correctness check; rejected
/// corrupt traces are expected data and never count here.
class Ledger {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }

  /// Records a failure and says so on stderr (the first few verbatim).
  void fail(const std::string& what) {
    ++failed_;
    if (failed_ <= kLoudFailures) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    } else if (failed_ == kLoudFailures + 1) {
      std::fprintf(stderr, "perfbench: further check failures suppressed\n");
    }
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  static constexpr std::size_t kLoudFailures = 20;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Deliberate output corruption for the self-test: each mode breaks one
/// output after the product produced it, and the run must then report
/// failures. `kNone` in every measured run.
enum class Perturb { kNone, kSummary, kFunnel, kCategory, kCached };

/// What the fixture wrote for one seed (manifest.txt in the corpus dir).
struct Manifest {
  std::uint64_t seed = 0;
  std::size_t files = 0;           ///< corpus traces (per format)
  std::size_t miss_files = 0;      ///< held-back never-seen traces
  std::size_t planted_corrupt = 0; ///< corpus traces corrupted in place
  std::size_t unique_apps = 0;     ///< distinct app keys among clean traces
  std::uint64_t bytes_mbt = 0;
  std::uint64_t bytes_text = 0;
};

}  // namespace perfbench
