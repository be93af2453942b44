#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "obs/timer.h"

namespace freshsel::obs {

/// Monotonic event counter with a lock-free, mostly contention-free fast
/// path: increments land on one of a small set of cache-line-padded shards
/// chosen per thread, and reads sum the shards. `Value()`/`Reset()` are
/// intended for snapshot time, not hot loops.
class Counter {
 public:
  void Add(std::uint64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };

  /// Threads are striped round-robin across shards; a thread keeps its
  /// stripe for life, so two pool workers never share a hot cache line
  /// (until more than kShards threads exist, which only costs throughput).
  static std::size_t ShardIndex();

  std::array<Shard, kShards> shards_;
};

/// Last-written-value metric (e.g. universe size, pool width).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are upper-inclusive bucket edges in
/// ascending order, plus one implicit overflow bucket, so a recorded value
/// lands in the first bucket whose bound is >= value. Records are a binary
/// search plus one relaxed atomic increment; sum/count keep enough to
/// report a mean.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  /// Default edges for latency-in-seconds histograms: half-decade steps
  /// from 1us to 31.6s (16 bounds + overflow).
  static std::vector<double> DefaultLatencyBounds();

  struct Snapshot {
    std::vector<double> bounds;          ///< Upper-inclusive edges.
    std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 buckets.
    std::uint64_t count = 0;
    double sum = 0.0;
    /// Smallest and largest recorded values. min > max (the default)
    /// means unknown, e.g. a snapshot built by hand.
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    double Mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
    /// bucket holding the q-th record: walk the cumulative counts to the
    /// target rank, then interpolate between the bucket's lower and upper
    /// edges by the rank's position within the bucket. The first bucket's
    /// lower edge is 0 (latency histograms never see negatives); records
    /// in the overflow bucket report the last finite edge (the estimate
    /// is a floor, not an extrapolation). When min and max are known the
    /// estimate is clamped to [min, max], so it never leaves the observed
    /// range. Empty histograms report 0.
    double Percentile(double q) const;
  };
  Snapshot TakeSnapshot() const;

  void Reset();

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 slots.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of every registered metric, serializable as
/// machine-readable JSON (the `metrics` object of a RunReport / the
/// BENCH_*.json schema) or a human-readable text block.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;

  std::string ToJson() const;
  /// Appends this snapshot as a JSON object to an in-progress writer (used
  /// by RunReport to embed the snapshot).
  void AppendJson(class JsonWriter& writer) const;
  std::string ToText() const;
  /// OpenMetrics text exposition (the Prometheus scrape format): one
  /// `# TYPE`/`# HELP` pair per metric, counters as `<name>_total`,
  /// histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
  /// `_count`, terminated by `# EOF`. Metric names are sanitized
  /// (`.` -> `_`, prefix `freshsel_`); the original dotted id is kept in
  /// the HELP line. Defined in openmetrics.cc.
  std::string ToOpenMetrics() const;
};

/// Metric ids follow `subsystem.noun.verb`: three or more '.'-separated
/// [a-z0-9_]+ segments, e.g. "selection.oracle.calls", so dashboards, the
/// report diff tool and the OpenMetrics exposition can group series by
/// layer and entity without a hand-kept mapping. The FRESHSEL_OBS_* macros
/// check their literal at compile time (obs/macros.h); MetricsRegistry
/// checks every name at registration.
constexpr bool IsValidMetricName(std::string_view name) {
  return DottedNameSegments(name) >= 3;
}

/// Process-wide registry of named metrics. Lookup takes a mutex once per
/// call site (call sites cache the returned reference, see
/// FRESHSEL_OBS_COUNT in obs/macros.h); the metric fast paths are
/// lock-free. Returned references stay valid for the process lifetime -
/// metrics are never unregistered, and Reset only zeroes values.
class MetricsRegistry {
 public:
  /// The process-wide instance every macro call site records into.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The Get* calls FRESHSEL_CHECK IsValidMetricName(name).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// Histogram with the default latency bounds. When the name already
  /// exists the existing instance is returned regardless of bounds.
  Histogram& GetHistogram(std::string_view name);
  Histogram& GetHistogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot TakeSnapshot() const;

  /// Zeroes every registered metric (registrations survive, so cached
  /// references at call sites stay valid).
  void ResetAll();

 private:
  mutable Mutex mutex_;
  /// Name -> metric maps are guarded; the metric objects themselves are
  /// lock-free and returned by reference past the lock (never destroyed,
  /// see class comment), so only registration takes the mutex.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      FRESHSEL_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      FRESHSEL_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      FRESHSEL_GUARDED_BY(mutex_);
};

/// RAII timer that records its lifetime (in seconds) into a histogram on
/// destruction; `Elapsed*` readers let the scope double as the measurement
/// for result tables (Table 2/3 runtimes) without a second clock read
/// site.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram& histogram)
      : histogram_(&histogram) {}
  ~ScopedLatencyTimer() { histogram_->Record(timer_.ElapsedSeconds()); }

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }
  double ElapsedMillis() const { return timer_.ElapsedMillis(); }

 private:
  Histogram* histogram_;
  WallTimer timer_;
};

}  // namespace freshsel::obs
