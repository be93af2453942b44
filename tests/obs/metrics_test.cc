#include "obs/metrics.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/macros.h"

namespace freshsel::obs {
namespace {

TEST(CounterTest, AddAndValue) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ExactUnderThreadPool) {
  Counter counter;
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 100000;
  pool.ParallelFor(kTasks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) counter.Add();
  });
  EXPECT_EQ(counter.Value(), kTasks);
}

TEST(CounterTest, ExactUnderRawThreads) {
  // More threads than shards: stripes wrap around, totals must still be
  // exact.
  Counter counter;
  constexpr int kThreads = 12;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndReset) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(3.5);
  EXPECT_EQ(gauge.Value(), 3.5);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, UpperInclusiveBucketBoundaries) {
  Histogram histogram({1.0, 10.0, 100.0});
  histogram.Record(0.5);     // <= 1.0 -> bucket 0.
  histogram.Record(1.0);     // == bound is inclusive -> bucket 0.
  histogram.Record(1.0001);  // just above -> bucket 1.
  histogram.Record(10.0);    // bucket 1.
  histogram.Record(100.0);   // bucket 2.
  histogram.Record(100.01);  // above the last bound -> overflow bucket.

  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);  // 3 bounds + overflow.
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 2u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.count, 6u);
}

TEST(HistogramTest, ExtremeValues) {
  Histogram histogram({1.0, 10.0});
  histogram.Record(0.0);
  histogram.Record(-5.0);  // Below every bound -> first bucket.
  histogram.Record(1e300);
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.count, 3u);
}

TEST(HistogramTest, SumAndMean) {
  Histogram histogram({1.0, 10.0});
  histogram.Record(2.0);
  histogram.Record(4.0);
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snapshot.sum, 6.0);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 3.0);
  histogram.Reset();
  EXPECT_EQ(histogram.TakeSnapshot().count, 0u);
  EXPECT_DOUBLE_EQ(histogram.TakeSnapshot().Mean(), 0.0);
}

TEST(HistogramTest, ExactCountAndSumUnderThreadPool) {
  Histogram histogram(Histogram::DefaultLatencyBounds());
  ThreadPool pool(4);
  constexpr std::size_t kRecords = 50000;
  pool.ParallelFor(kRecords, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) histogram.Record(0.001);
  });
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, kRecords);
  // The sum is a CAS loop on a double; with identical addends it must be
  // exact (no lost updates, and 50'000 * 0.001 is exactly representable
  // step by step within tolerance).
  EXPECT_NEAR(snapshot.sum, 0.001 * static_cast<double>(kRecords), 1e-6);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : snapshot.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, kRecords);
}

TEST(HistogramTest, DefaultLatencyBoundsAscending) {
  const std::vector<double> bounds = Histogram::DefaultLatencyBounds();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_LE(bounds.front(), 1e-5);  // Catches micro-scale latencies.
  EXPECT_GE(bounds.back(), 10.0);   // And whole-run scale ones.
}

TEST(RegistryTest, SameNameSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.GetHistogram("h");
  Histogram& h2 = registry.GetHistogram("h", {1.0, 2.0});  // Name wins.
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bounds(), Histogram::DefaultLatencyBounds());
}

TEST(RegistryTest, SnapshotAndResetAll) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("events");
  counter.Add(7);
  registry.GetGauge("width").Set(2.0);
  registry.GetHistogram("lat").Record(0.5);

  MetricsSnapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.counters.at("events"), 7u);
  EXPECT_EQ(snapshot.gauges.at("width"), 2.0);
  EXPECT_EQ(snapshot.histograms.at("lat").count, 1u);

  registry.ResetAll();
  snapshot = registry.TakeSnapshot();
  // Registrations survive (cached references stay valid), values zero.
  EXPECT_EQ(snapshot.counters.at("events"), 0u);
  EXPECT_EQ(snapshot.gauges.at("width"), 0.0);
  EXPECT_EQ(snapshot.histograms.at("lat").count, 0u);
  counter.Add();  // The old reference still works.
  EXPECT_EQ(registry.TakeSnapshot().counters.at("events"), 1u);
}

TEST(RegistryTest, ConcurrentRegistrationAndUse) {
  MetricsRegistry registry;
  ThreadPool pool(4);
  std::vector<std::string> counter_names;
  std::vector<std::string> histogram_names;
  for (int i = 0; i < 7; ++i) counter_names.push_back("c" + std::to_string(i));
  for (int i = 0; i < 3; ++i) {
    histogram_names.push_back("h" + std::to_string(i));
  }
  pool.ParallelFor(1000, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      registry.GetCounter(counter_names[i % 7]).Add();
      registry.GetHistogram(histogram_names[i % 3]).Record(0.01);
    }
  });
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  std::uint64_t total = 0;
  for (const auto& [name, value] : snapshot.counters) total += value;
  EXPECT_EQ(total, 1000u);
  std::uint64_t records = 0;
  for (const auto& [name, h] : snapshot.histograms) records += h.count;
  EXPECT_EQ(records, 1000u);
}

TEST(SnapshotTest, JsonAndTextShapes) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Add(3);
  registry.GetGauge("b.gauge").Set(1.5);
  registry.GetHistogram("c.lat", {1.0}).Record(0.5);
  const MetricsSnapshot snapshot = registry.TakeSnapshot();

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c.lat\""), std::string::npos);

  const std::string text = snapshot.ToText();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("3"), std::string::npos);
}

TEST(HistogramPercentileTest, InterpolatesInsideBuckets) {
  Histogram::Snapshot snapshot;
  snapshot.bounds = {10.0, 20.0};
  snapshot.counts = {4, 4, 2};  // Two finite buckets + overflow.
  snapshot.count = 10;
  // Rank 5 is the first record of the [10, 20] bucket: 1/4 into it.
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.5), 12.5);
  // Rank 2.5 sits 62.5% into the first bucket, whose lower edge is 0.
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.25), 6.25);
  // q clamps to [0, 1].
  EXPECT_DOUBLE_EQ(snapshot.Percentile(-1.0), snapshot.Percentile(0.0));
  EXPECT_DOUBLE_EQ(snapshot.Percentile(2.0), snapshot.Percentile(1.0));
}

TEST(HistogramPercentileTest, OverflowBucketReportsLastFiniteEdge) {
  Histogram::Snapshot snapshot;
  snapshot.bounds = {10.0, 20.0};
  snapshot.counts = {4, 4, 2};
  snapshot.count = 10;
  // Ranks 9.5 and 10 land in the overflow bucket: the estimate floors at
  // the last finite edge rather than extrapolating.
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.95), 20.0);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(1.0), 20.0);
}

TEST(HistogramPercentileTest, EmptyHistogramReportsZero) {
  Histogram::Snapshot snapshot;
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.5), 0.0);
  snapshot.bounds = {1.0};
  snapshot.counts = {0, 0};
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.99), 0.0);
}

TEST(HistogramPercentileTest, LivePercentilesAreOrderedAndBounded) {
  Histogram histogram({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 50; ++i) histogram.Record(0.5);
  for (int i = 0; i < 45; ++i) histogram.Record(3.0);
  for (int i = 0; i < 5; ++i) histogram.Record(7.0);
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  const double p50 = snapshot.Percentile(0.50);
  const double p95 = snapshot.Percentile(0.95);
  const double p99 = snapshot.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p99, 8.0);
  // 50 of 100 records are <= 1.0, so p50 lives in the first bucket.
  EXPECT_LE(p50, 1.0);
  // The top 5% are in the (4, 8] bucket.
  EXPECT_GT(p99, 4.0);
}

TEST(ScopedLatencyTimerTest, RecordsOnDestruction) {
  Histogram histogram(Histogram::DefaultLatencyBounds());
  {
    ScopedLatencyTimer timer(histogram);
    EXPECT_GE(timer.ElapsedSeconds(), 0.0);
    EXPECT_GE(timer.ElapsedMillis(), 0.0);
  }
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 1u);
  EXPECT_GE(snapshot.sum, 0.0);
}

TEST(MacroTest, CountMacroReachesGlobalRegistry) {
  FRESHSEL_OBS_COUNT("obs_test.macro.counter", 2);
  FRESHSEL_OBS_COUNT("obs_test.macro.counter", 3);
  const MetricsSnapshot snapshot =
      MetricsRegistry::Global().TakeSnapshot();
  EXPECT_GE(snapshot.counters.at("obs_test.macro.counter"), 5u);
}

TEST(MacroTest, ScopedLatencyMacroRecords) {
  { FRESHSEL_OBS_SCOPED_LATENCY("obs_test.macro.latency"); }
  const MetricsSnapshot snapshot =
      MetricsRegistry::Global().TakeSnapshot();
  EXPECT_GE(snapshot.histograms.at("obs_test.macro.latency").count, 1u);
}

}  // namespace
}  // namespace freshsel::obs
