#include "obs/metrics.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/string_util.h"
#include "obs/json.h"

namespace freshsel::obs {

std::size_t Counter::ShardIndex() {
  static std::atomic<std::size_t> next_stripe{0};
  thread_local const std::size_t stripe =
      next_stripe.fetch_add(1, std::memory_order_relaxed);
  return stripe % kShards;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(double value) {
  const auto it =
      std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t index =
      static_cast<std::size_t>(it - bounds_.begin());  // == size: overflow.
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen && !min_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen && !max_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

std::vector<double> Histogram::DefaultLatencyBounds() {
  // Half-decade steps: 1us, 3.16us, 10us, ..., 10s, 31.6s.
  std::vector<double> bounds;
  double decade = 1e-6;
  for (int i = 0; i < 8; ++i) {
    bounds.push_back(decade);
    bounds.push_back(decade * 3.1622776601683795);
    decade *= 10.0;
  }
  return bounds;
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count == 0 || bounds.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th record, 1-based; q=0 targets the first record.
  const double rank = q * static_cast<double>(count);
  double estimate = bounds.back();  // Overflow bucket.
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    const double bucket_start = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) break;
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double fraction =
        (rank - bucket_start) / static_cast<double>(in_bucket);
    estimate = lower + (upper - lower) * (fraction < 0.0 ? 0.0 : fraction);
    break;
  }
  // A bucket's edges can lie outside every recorded value; the observed
  // range cannot.
  return min <= max ? std::clamp(estimate, min, max) : estimate;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snapshot.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.min = min_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  return snapshot;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void MetricsSnapshot::AppendJson(JsonWriter& writer) const {
  writer.BeginObject();
  writer.Key("counters");
  writer.BeginObject();
  for (const auto& [name, value] : counters) {
    writer.Field(name, value);
  }
  writer.EndObject();
  writer.Key("gauges");
  writer.BeginObject();
  for (const auto& [name, value] : gauges) {
    writer.Field(name, value);
  }
  writer.EndObject();
  writer.Key("histograms");
  writer.BeginObject();
  for (const auto& [name, histogram] : histograms) {
    writer.Key(name);
    writer.BeginObject();
    writer.Field("count", histogram.count);
    writer.Field("sum", histogram.sum);
    writer.Field("mean", histogram.Mean());
    if (histogram.min <= histogram.max) {
      writer.Field("min", histogram.min);
      writer.Field("max", histogram.max);
    }
    writer.Field("p50", histogram.Percentile(0.50));
    writer.Field("p95", histogram.Percentile(0.95));
    writer.Field("p99", histogram.Percentile(0.99));
    writer.Key("bounds");
    writer.BeginArray();
    for (double bound : histogram.bounds) writer.Double(bound);
    writer.EndArray();
    writer.Key("counts");
    writer.BeginArray();
    for (std::uint64_t count : histogram.counts) writer.Uint(count);
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter writer;
  AppendJson(writer);
  return writer.TakeString();
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += StringPrintf("counter   %-40s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : gauges) {
    out += StringPrintf("gauge     %-40s %g\n", name.c_str(), value);
  }
  for (const auto& [name, histogram] : histograms) {
    out += StringPrintf(
        "histogram %-40s count=%llu mean=%g p50=%g p95=%g p99=%g\n",
        name.c_str(), static_cast<unsigned long long>(histogram.count),
        histogram.Mean(), histogram.Percentile(0.50),
        histogram.Percentile(0.95), histogram.Percentile(0.99));
  }
  return out;
}

namespace {

void CheckMetricName(std::string_view name) {
  FRESHSEL_CHECK(IsValidMetricName(name))
      << "metric name '" << name
      << "' must follow subsystem.noun.verb ([a-z0-9_]+, three or more "
         "'.'-separated segments)";
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  CheckMetricName(name);
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  CheckMetricName(name);
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  return GetHistogram(name, Histogram::DefaultLatencyBounds());
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  CheckMetricName(name);
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->TakeSnapshot();
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace freshsel::obs
