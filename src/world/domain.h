#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace freshsel::world {

/// Index of a homogeneous subdomain (one cell of the cross product of the
/// domain's discrete dimensions, e.g. one (location, category) pair).
using SubdomainId = std::uint32_t;

/// A heterogeneous data domain Omega with two discrete dimensions, matching
/// the paper's running examples: business listings are location x category,
/// GDELT events are location x event type (Section 2.2, Figure 2).
///
/// Subdomains are the atomic slices: the world change models are learned per
/// subdomain and micro-sources cover subsets of subdomains.
class DataDomain {
 public:
  /// Returns InvalidArgument unless both dimension sizes are positive and
  /// their product fits SubdomainId.
  static Result<DataDomain> Create(std::string dim1_name,
                                   std::uint32_t dim1_size,
                                   std::string dim2_name,
                                   std::uint32_t dim2_size);

  const std::string& dim1_name() const { return dim1_name_; }
  const std::string& dim2_name() const { return dim2_name_; }
  std::uint32_t dim1_size() const { return dim1_size_; }
  std::uint32_t dim2_size() const { return dim2_size_; }

  /// Total number of subdomains (dim1_size * dim2_size).
  std::uint32_t subdomain_count() const { return dim1_size_ * dim2_size_; }

  /// Pre: indices within the dimension sizes.
  SubdomainId SubdomainOf(std::uint32_t dim1_index,
                          std::uint32_t dim2_index) const {
    return dim1_index * dim2_size_ + dim2_index;
  }
  std::uint32_t Dim1Of(SubdomainId id) const { return id / dim2_size_; }
  std::uint32_t Dim2Of(SubdomainId id) const { return id % dim2_size_; }

  /// All subdomain ids sharing dimension-1 index `dim1_index` (e.g. every
  /// category in one location).
  std::vector<SubdomainId> SubdomainsInDim1(std::uint32_t dim1_index) const;
  /// All subdomain ids sharing dimension-2 index `dim2_index`.
  std::vector<SubdomainId> SubdomainsInDim2(std::uint32_t dim2_index) const;

 private:
  DataDomain(std::string dim1_name, std::uint32_t dim1_size,
             std::string dim2_name, std::uint32_t dim2_size)
      : dim1_name_(std::move(dim1_name)),
        dim2_name_(std::move(dim2_name)),
        dim1_size_(dim1_size),
        dim2_size_(dim2_size) {}

  std::string dim1_name_;
  std::string dim2_name_;
  std::uint32_t dim1_size_;
  std::uint32_t dim2_size_;
};

}  // namespace freshsel::world
