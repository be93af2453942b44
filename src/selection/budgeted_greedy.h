#pragma once

#include "selection/algorithms.h"

namespace freshsel::selection {

/// Tuning knobs for `BudgetedGreedy`: the stochastic phase-1 settings and
/// the decision log of `GreedyOptions`. Stochastic rounds sample the
/// affordable candidates; the Khuller-Moss-Naor singleton safeguard
/// (phase 2) always scans every affordable singleton. `stochastic_k == 0`
/// falls back to n; pass budget / typical-cost when the expected solution
/// size is known. Each accepted cost-benefit round appends one
/// obs::DecisionRecord whose `score` is the marginal-gain / cost ratio; a
/// winning singleton appends a `kind == kSingleton` record.
using BudgetedGreedyOptions = GreedyOptions;

/// Budgeted source selection (the budget-bound regime of Definition 3):
/// maximizes the *gain* subject to cost(S) <= budget, using the classic
/// cost-benefit greedy for budgeted submodular maximization - repeatedly
/// add the affordable element with the best marginal-gain / cost ratio,
/// then return the better of that solution and the best affordable
/// singleton (the Khuller-Moss-Naor safeguard; for monotone submodular
/// gains the combination is a constant-factor approximation).
///
/// Singleton costs are evaluated once up front (O(n) cost-oracle calls
/// total, independent of the number of greedy rounds). Phase 1 runs CELF
/// over the ratios only when `oracle.submodular()` - with a submodular gain
/// and fixed costs a stale ratio bounds the current one - and re-scans
/// every affordable candidate each round otherwise.
///
/// This complements the local-search algorithms, whose -infinity treatment
/// of infeasible sets makes them blind near a tight budget boundary.
SelectionResult BudgetedGreedy(const GainCostFunction& oracle,
                               const BudgetedGreedyOptions& options = {});

}  // namespace freshsel::selection
