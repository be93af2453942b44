#include "world/domain.h"

#include <cstdint>
#include <limits>

namespace freshsel::world {

Result<DataDomain> DataDomain::Create(std::string dim1_name,
                                      std::uint32_t dim1_size,
                                      std::string dim2_name,
                                      std::uint32_t dim2_size) {
  if (dim1_size == 0 || dim2_size == 0) {
    return Status::InvalidArgument("domain dimensions must be positive");
  }
  if (std::uint64_t{dim1_size} * dim2_size >
      std::numeric_limits<SubdomainId>::max()) {
    return Status::InvalidArgument(
        "domain has more subdomains than SubdomainId can index");
  }
  return DataDomain(std::move(dim1_name), dim1_size, std::move(dim2_name),
                    dim2_size);
}

std::vector<SubdomainId> DataDomain::SubdomainsInDim1(
    std::uint32_t dim1_index) const {
  std::vector<SubdomainId> ids;
  ids.reserve(dim2_size_);
  for (std::uint32_t d2 = 0; d2 < dim2_size_; ++d2) {
    ids.push_back(SubdomainOf(dim1_index, d2));
  }
  return ids;
}

std::vector<SubdomainId> DataDomain::SubdomainsInDim2(
    std::uint32_t dim2_index) const {
  std::vector<SubdomainId> ids;
  ids.reserve(dim1_size_);
  for (std::uint32_t d1 = 0; d1 < dim1_size_; ++d1) {
    ids.push_back(SubdomainOf(d1, dim2_index));
  }
  return ids;
}

}  // namespace freshsel::world
