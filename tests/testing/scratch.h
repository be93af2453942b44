#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <string_view>

namespace freshsel::testing {

/// Process-unique counter for scratch paths. Parallel `ctest -j` schedules
/// run many test binaries against the same /tmp at once, and gtest's
/// TempDir() alone does not distinguish them; pid + counter does.
inline unsigned NextScratchId() {
  static std::atomic<unsigned> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// A per-test scratch directory: created empty on construction under
/// gtest's TempDir(), named after the running test plus a pid/counter
/// suffix, recursively removed on destruction. Replaces the hand-rolled
/// SetUp/TearDown remove_all dance the e2e suites used to copy around.
class ScratchDir {
 public:
  explicit ScratchDir(std::string_view tag = "scratch") {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "freshsel_";
    name += tag;
    if (info != nullptr) {
      name += '_';
      name += info->test_suite_name();
      name += '_';
      name += info->name();
    }
    name += '_';
    name += std::to_string(::getpid());
    name += '_';
    name += std::to_string(NextScratchId());
    path_ = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }

  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // Best effort in teardown.
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

  /// Path of `name` inside the scratch directory.
  std::string file(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

/// A short, process-unique unix-socket path directly in /tmp.
/// sockaddr_un::sun_path caps paths at ~107 bytes and test-name-derived
/// TempDir() paths easily blow past it, so socket paths do not live in the
/// ScratchDir. The server unlinks the path on drain; call CleanupSocket in
/// teardown anyway so an aborted test leaves nothing behind.
inline std::string UniqueSocketPath() {
  return "/tmp/fsel_" + std::to_string(::getpid()) + "_" +
         std::to_string(NextScratchId()) + ".sock";
}

inline void CleanupSocket(const std::string& path) { ::unlink(path.c_str()); }

}  // namespace freshsel::testing
