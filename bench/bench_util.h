#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "workloads/bl_generator.h"
#include "workloads/gdelt_generator.h"

namespace freshsel::bench {

/// --metrics-out=FILE / --trace-out=FILE handling for bench binaries. The
/// constructor strips both flags from argv (so a bench's own flag parsing
/// - notably google-benchmark's - never sees them) and primes the global
/// registry / trace collector; the destructor writes the requested files
/// once the bench body has run. Benches may fold extra context into
/// `report()` (labels, counters, stages) before exit.
class ObsSession {
 public:
  ObsSession(std::string name, int* argc, char** argv) {
    report_.name = std::move(name);
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--metrics-out=", 0) == 0) {
        metrics_path_ = arg.substr(14);
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        trace_path_ = arg.substr(12);
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
    if (!metrics_path_.empty()) {
      obs::MetricsRegistry::Global().ResetAll();
    }
    if (!trace_path_.empty()) {
      obs::ClearTrace();
      obs::SetTraceEnabled(true);
    }
  }

  ~ObsSession() {
    if (!trace_path_.empty()) {
      obs::SetTraceEnabled(false);
      const Status status = obs::WriteTraceFile(trace_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "trace-out: %s\n", status.ToString().c_str());
      }
    }
    if (!metrics_path_.empty()) {
      report_.CaptureGlobalMetrics();
      const Status status = report_.WriteJsonFile(metrics_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "metrics-out: %s\n", status.ToString().c_str());
      }
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::RunReport& report() { return report_; }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  obs::RunReport report_;
};

/// FRESHSEL_FULL=1 switches the benches from the fast default sweeps to the
/// paper's full parameter ranges (notably GRASP-(10,100) and the 8,643-
/// source BL+ datasets).
inline bool FullMode() {
  const char* env = std::getenv("FRESHSEL_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// The standard BL-like scenario used by the BL experiments: 51 locations,
/// 23 months of history, training on the first 10 months (Section 6.1).
inline workloads::BlConfig DefaultBl() {
  workloads::BlConfig config;
  config.locations = 51;
  config.categories = 8;
  config.horizon = 690;
  config.t0 = 300;
  config.scale = 1.0;
  return config;
}

/// BL variant with more categories for the Figure 13(b) domain-size sweep
/// (up to 500 (location, category) pairs).
inline workloads::BlConfig WideBl() {
  workloads::BlConfig config = DefaultBl();
  config.categories = 12;
  return config;
}

/// The standard GDELT-like scenario: 22 days, training on 15, all sources
/// updating daily. Source count scaled down from the paper's 15,275.
inline workloads::GdeltConfig DefaultGdelt() {
  workloads::GdeltConfig config;
  config.locations = 25;
  config.event_types = 10;
  config.horizon = 22;
  config.t0 = 15;
  config.n_large = 8;
  config.n_small = FullMode() ? 992 : 192;
  return config;
}

inline void PrintHeader(const char* bench_name, const char* what) {
  std::printf("####################################################\n");
  std::printf("# %s\n# reproduces: %s\n", bench_name, what);
  std::printf("# mode: %s (set FRESHSEL_FULL=1 for the paper-scale sweep)\n",
              FullMode() ? "FULL" : "fast");
  std::printf("####################################################\n\n");
}

}  // namespace freshsel::bench
