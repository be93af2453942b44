#pragma once

#include <string>

#include "common/result.h"
#include "source/source_history.h"
#include "world/world.h"

namespace freshsel::io {

/// Test-only reference readers: the line-by-line getline/Split parsers that
/// ReadWorldCsv / ReadSourceHistoryCsv replaced. Every input must produce
/// the same status (code and message) or the same object from both.
Result<world::World> ReferenceReadWorldCsv(const std::string& path);
Result<source::SourceHistory> ReferenceReadSourceHistoryCsv(
    const std::string& path);

}  // namespace freshsel::io
