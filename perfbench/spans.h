#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds; every timestamp of a run comes from this clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer, recorded by the benchmark around the call.
struct Span {
  std::string name;
  std::string tag;  ///< Request class or algorithm; may be empty.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< Index of the causing span; -1 for a root.
  std::uint64_t request = 0;  ///< Shared by every span of one request.

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Per span name: how many, total time, and self time (each span's time
/// minus the part of its interval that its child spans cover).
struct LayerTime {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Self time of every span, in span order.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

/// The spans and per-layer totals as one JSON document.
std::string SpansToJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
