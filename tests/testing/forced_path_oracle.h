#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "selection/profit.h"

namespace freshsel::testing {

/// Which reference path a `ForcedPathOracle` sends the selection engine
/// down. The engine picks CELF over a full re-scan from
/// `ProfitFunction::submodular()`, and scores on the oracle's
/// `MakeContext()`; hiding the submodular claim reaches the re-scan, and
/// handing out the base default context (which scores with full-set
/// `Profit`/`Gain` calls) reaches plain scoring.
enum class ForcedPath {
  kEager,       ///< Full re-scans; the wrapped oracle's context kept.
  kPlain,       ///< Plain full-set scoring; CELF kept when submodular.
  kEagerPlain,  ///< Both.
};

/// Forwarding decorator for the tests and benches that compare selection
/// paths: every value comes from the wrapped oracle unchanged, so results
/// differ only by the path taken. Oracle calls are counted as the wrapped
/// oracle counts them (each forwarded call adds its delta of the wrapped
/// counter), which is exact because the decorator reports
/// `thread_safe() == false` and is therefore evaluated serially.
/// Gain/Cost/budget need a `GainCostFunction` underneath.
class ForcedPathOracle final : public selection::GainCostFunction {
 public:
  ForcedPathOracle(const selection::ProfitFunction& inner, ForcedPath path)
      : inner_(&inner),
        gain_cost_(dynamic_cast<const selection::GainCostFunction*>(&inner)),
        path_(path) {}

  std::size_t universe_size() const override {
    return inner_->universe_size();
  }
  double Profit(const std::vector<selection::SourceHandle>& set)
      const override {
    return Counted([&] { return inner_->Profit(set); });
  }
  double Gain(const std::vector<selection::SourceHandle>& set)
      const override {
    return Counted([&] { return GainCost().Gain(set); });
  }
  double Cost(const std::vector<selection::SourceHandle>& set)
      const override {
    return Counted([&] { return GainCost().Cost(set); });
  }
  double budget() const override { return GainCost().budget(); }

  bool submodular() const override {
    return path_ == ForcedPath::kPlain && inner_->submodular();
  }
  std::unique_ptr<selection::MarginalEvalContext> MakeContext()
      const override {
    if (path_ != ForcedPath::kEager) {
      return selection::ProfitFunction::MakeContext();
    }
    return std::make_unique<Context>(this, inner_->MakeContext());
  }

 private:
  /// Forwards to the wrapped context, counting like `Counted`.
  class Context final : public selection::MarginalEvalContext {
   public:
    Context(const ForcedPathOracle* owner,
            std::unique_ptr<selection::MarginalEvalContext> inner)
        : owner_(owner), inner_(std::move(inner)) {}

    void Reset(const std::vector<selection::SourceHandle>& set) override {
      inner_->Reset(set);
    }
    const std::vector<selection::SourceHandle>& set() const override {
      return inner_->set();
    }
    double CurrentProfit() override {
      return owner_->Counted([&] { return inner_->CurrentProfit(); });
    }
    double CurrentGain() override {
      return owner_->Counted([&] { return inner_->CurrentGain(); });
    }
    double ProfitWith(selection::SourceHandle handle) override {
      return owner_->Counted([&] { return inner_->ProfitWith(handle); });
    }
    double GainWith(selection::SourceHandle handle) override {
      return owner_->Counted([&] { return inner_->GainWith(handle); });
    }

   private:
    const ForcedPathOracle* owner_;
    std::unique_ptr<selection::MarginalEvalContext> inner_;
  };

  const selection::GainCostFunction& GainCost() const {
    FRESHSEL_CHECK(gain_cost_ != nullptr)
        << "ForcedPathOracle needs a GainCostFunction underneath";
    return *gain_cost_;
  }

  template <typename Eval>
  double Counted(const Eval& eval) const {
    const std::uint64_t before = inner_->call_count();
    const double value = eval();
    calls_.fetch_add(inner_->call_count() - before,
                     std::memory_order_relaxed);
    return value;
  }

  const selection::ProfitFunction* inner_;
  const selection::GainCostFunction* gain_cost_;
  ForcedPath path_;
};

}  // namespace freshsel::testing
