#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "selection/profit.h"

namespace freshsel::selection {

/// A partition matroid over the source universe: elements are partitioned
/// into groups and an independent set contains at most `capacity[g]`
/// elements of group g. The varying-frequency selection of Section 5 uses
/// rank-1 groups ("pick at most one frequency version per source"), each a
/// uniform matroid U^1.
class PartitionMatroid {
 public:
  /// `group_of[e]` is the group of element e; `capacities[g]` its rank.
  /// Returns InvalidArgument when a group index is out of range or a
  /// capacity is zero.
  static Result<PartitionMatroid> Create(std::vector<std::uint32_t> group_of,
                                         std::vector<std::uint32_t> capacities);

  std::size_t element_count() const { return group_of_.size(); }
  std::size_t group_count() const { return capacities_.size(); }
  std::uint32_t GroupOf(SourceHandle e) const { return group_of_[e]; }
  std::uint32_t CapacityOf(std::uint32_t group) const {
    return capacities_[group];
  }

  /// True when `set` is independent.
  bool IsIndependent(const std::vector<SourceHandle>& set) const;

  /// True when `set` (assumed independent) stays independent after adding
  /// `element`.
  bool CanAdd(const std::vector<SourceHandle>& set,
              SourceHandle element) const;

  /// Elements of `set` sharing `element`'s group (the candidates that an
  /// exchange must remove to restore independence).
  std::vector<SourceHandle> ConflictsWith(
      const std::vector<SourceHandle>& set, SourceHandle element) const;

 private:
  PartitionMatroid(std::vector<std::uint32_t> group_of,
                   std::vector<std::uint32_t> capacities)
      : group_of_(std::move(group_of)), capacities_(std::move(capacities)) {}

  std::vector<std::uint32_t> group_of_;
  std::vector<std::uint32_t> capacities_;
};

}  // namespace freshsel::selection
