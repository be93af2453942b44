// Compiles every repository header that perfbench's serve_bench.cc and
// workload.{h,cc} include, at the standard serve_bench builds with: its
// CMakeLists sets none, so GCC 12 compiles it as gnu++17 while the project
// requires C++20. A C++20-only construct in one of these headers would pass
// every test and still break the benchmark's build; this TU makes it break
// the default build instead. Delete it (and its target in CMakeLists.txt)
// once perfbench sets its own C++ standard.

#include "common/mutex.h"
#include "common/random.h"
#include "common/result.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "estimation/degradation.h"
#include "estimation/world_change_model.h"
#include "io/scenario_io.h"
#include "obs/json.h"
#include "obs/report.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads/bl_generator.h"
