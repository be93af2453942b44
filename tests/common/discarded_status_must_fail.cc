// Deliberately discards a Status and a Result. NOT part of any build target:
// CMake try_compiles this file under -Werror=unused-result at configure time
// and FAILS THE CONFIGURE if it compiles, proving the compiler rejects a
// dropped [[nodiscard]] Status/Result in every build (see "Discarded
// Status/Result" in the top-level CMakeLists.txt and DESIGN.md §12).

#include "common/result.h"
#include "common/status.h"

namespace freshsel {
namespace {

Status Save() { return Status::OK(); }
Result<int> Load() { return 1; }

}  // namespace
}  // namespace freshsel

int main() {
  // Violation 1: a discarded Status.
  freshsel::Save();
  // Violation 2: a discarded Result<T>.
  freshsel::Load();
  return 0;
}
