#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "world/entity.h"

namespace freshsel::integration {

/// Exact-matching duplicate detector over canonicalized record keys — the
/// paper's preprocessing step for extracting the world evolution from raw
/// source snapshots ("standard canonicalization and format standardization
/// techniques together with an exact matching algorithm", Section 6.1).
///
/// Raw keys (e.g. "  JOE'S  Pizza, NY ") are canonicalized (lowercased,
/// punctuation stripped, whitespace collapsed) and interned to dense entity
/// ids, so records of the same real-world entity coming from different
/// sources collapse to one id.
class EntityDictionary {
 public:
  /// Lowercases, strips non-alphanumeric characters (keeping single spaces
  /// as separators) and collapses runs of whitespace.
  static std::string Canonicalize(std::string_view raw);

  /// Interns `raw` (after canonicalization), assigning the next dense id on
  /// first sight.
  world::EntityId Intern(std::string_view raw);

  /// Id of `raw` if already interned.
  std::optional<world::EntityId> Lookup(std::string_view raw) const;

  /// Canonical key of an interned id.
  const std::string& KeyOf(world::EntityId id) const { return keys_[id]; }

  std::size_t size() const { return keys_.size(); }

 private:
  std::unordered_map<std::string, world::EntityId> index_;
  std::vector<std::string> keys_;
};

}  // namespace freshsel::integration
