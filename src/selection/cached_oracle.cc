#include "selection/cached_oracle.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "obs/macros.h"

namespace freshsel::selection {

std::size_t CachedProfitOracle::SetHash::operator()(
    const std::vector<SourceHandle>& set) const {
  // FNV-1a over the handles. Sets are canonical sorted vectors, so equal
  // sets hash equal without normalization.
  std::uint64_t h = 1469598103934665603ull;
  for (SourceHandle e : set) {
    h ^= static_cast<std::uint64_t>(e);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

CachedProfitOracle::CachedProfitOracle(const ProfitFunction& base)
    : base_(&base),
      gain_cost_(base.gain_cost()) {}

CachedProfitOracle::Cache& CachedProfitOracle::CacheFor(
    CacheKind kind) const {
  switch (kind) {
    case CacheKind::kProfit:
      return profit_cache_;
    case CacheKind::kGain:
      return gain_cache_;
    case CacheKind::kCost:
      break;
  }
  return cost_cache_;
}

template <typename Eval>
double CachedProfitOracle::Memoize(CacheKind kind,
                                   const std::vector<SourceHandle>& set,
                                   const Eval& eval) const {
  {
    MutexLock lock(mutex_);
    const Cache& cache = CacheFor(kind);
    auto it = cache.find(set);
    if (it != cache.end()) {
      ++stats_.hits;
      hit_events_.fetch_add(1, std::memory_order_relaxed);
      FRESHSEL_OBS_COUNT("selection.cache.hits", 1);
      return it->second;
    }
  }
  // Evaluate outside the lock so concurrent misses on a thread-safe base
  // proceed in parallel. A racing duplicate evaluation of the same set is
  // benign: both compute the identical deterministic value.
  const double value = eval();
  {
    MutexLock lock(mutex_);
    ++stats_.misses;
    calls_.fetch_add(1, std::memory_order_relaxed);
    CacheFor(kind).emplace(set, value);
  }
  FRESHSEL_OBS_COUNT("selection.cache.misses", 1);
  return value;
}

double CachedProfitOracle::Profit(
    const std::vector<SourceHandle>& set) const {
  return Memoize(CacheKind::kProfit, set, [&] { return base_->Profit(set); });
}

double CachedProfitOracle::Gain(const std::vector<SourceHandle>& set) const {
  FRESHSEL_CHECK(gain_cost_ != nullptr)
      << "CachedProfitOracle::Gain needs a GainCostFunction base";
  return Memoize(CacheKind::kGain, set, [&] { return gain_cost_->Gain(set); });
}

double CachedProfitOracle::Cost(const std::vector<SourceHandle>& set) const {
  FRESHSEL_CHECK(gain_cost_ != nullptr)
      << "CachedProfitOracle::Cost needs a GainCostFunction base";
  return Memoize(CacheKind::kCost, set, [&] { return gain_cost_->Cost(set); });
}

double CachedProfitOracle::budget() const {
  FRESHSEL_CHECK(gain_cost_ != nullptr)
      << "CachedProfitOracle::budget needs a GainCostFunction base";
  return gain_cost_->budget();
}

/// Decorating context: `Reset` delegates to the wrapped oracle's context;
/// evaluations go through `Memoize` under the canonical sorted key of the
/// evaluated set, so hits skip the wrapped context's evaluation (and, as
/// everywhere in the decorator, only misses count as oracle calls).
class CachedProfitOracle::CachedContext final : public MarginalEvalContext {
 public:
  CachedContext(const CachedProfitOracle* owner,
                std::unique_ptr<MarginalEvalContext> base)
      : owner_(owner), base_(std::move(base)) {}

  void Reset(const std::vector<SourceHandle>& set) override {
    base_->Reset(set);
  }
  const std::vector<SourceHandle>& set() const override {
    return base_->set();
  }

  double CurrentProfit() override {
    return owner_->Memoize(CacheKind::kProfit, base_->set(),
                           [&] { return base_->CurrentProfit(); });
  }
  double CurrentGain() override {
    return owner_->Memoize(CacheKind::kGain, base_->set(),
                           [&] { return base_->CurrentGain(); });
  }
  double ProfitWith(SourceHandle handle) override {
    return owner_->Memoize(CacheKind::kProfit, KeyWith(handle),
                           [&] { return base_->ProfitWith(handle); });
  }
  double GainWith(SourceHandle handle) override {
    return owner_->Memoize(CacheKind::kGain, KeyWith(handle),
                           [&] { return base_->GainWith(handle); });
  }

 private:
  /// Canonical sorted key of set() + {handle}, built into a reused buffer.
  const std::vector<SourceHandle>& KeyWith(SourceHandle handle) {
    const std::vector<SourceHandle>& current = base_->set();
    key_.clear();
    key_.reserve(current.size() + 1);
    const auto split =
        std::upper_bound(current.begin(), current.end(), handle);
    key_.insert(key_.end(), current.begin(), split);
    key_.push_back(handle);
    key_.insert(key_.end(), split, current.end());
    return key_;
  }

  const CachedProfitOracle* owner_;
  std::unique_ptr<MarginalEvalContext> base_;
  std::vector<SourceHandle> key_;
};

std::unique_ptr<MarginalEvalContext> CachedProfitOracle::MakeContext() const {
  return std::make_unique<CachedContext>(this, base_->MakeContext());
}

CachedProfitOracle::Stats CachedProfitOracle::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void CachedProfitOracle::ClearCaches() {
  MutexLock lock(mutex_);
  profit_cache_.clear();
  gain_cache_.clear();
  cost_cache_.clear();
  stats_ = Stats{};
  hit_events_.store(0, std::memory_order_relaxed);
}

}  // namespace freshsel::selection
