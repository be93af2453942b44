#pragma once

/// Umbrella header for the freshsel library - everything a downstream user
/// needs to characterize dynamic data sources and select the
/// profit-maximizing subset to integrate, per "Characterizing and Selecting
/// Fresh Data Sources" (Rekatsinas, Dong, Srivastava; SIGMOD 2014).
///
/// Layering (each header is also individually includable):
///   common/       Status/Result, time axis, RNG, bit-vector signatures
///   stats/        Poisson & censored-exponential MLE, Kaplan-Meier
///   world/        the evolving data domain and its simulator
///   source/       dynamic sources: schedules, capture behaviour, histories
///   integration/  union integration, history integration, signatures
///   metrics/      exact time-dependent coverage / freshness / accuracy
///   estimation/   learned change models and the future-quality estimator
///   selection/    gain/cost models and the selection algorithms
///   workloads/    BL-like / GDELT-like / BL+ scenario generators
///   harness/      experiment drivers used by the benches
///   io/           CSV persistence for worlds and source histories
///   obs/          metrics, tracing, decision logs, and run reports

#include "common/bit_vector.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/time_types.h"
#include "estimation/quality_estimator.h"
#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "harness/characterization.h"
#include "harness/learned_scenario.h"
#include "harness/prediction_experiment.h"
#include "harness/selection_experiment.h"
#include "integration/entity_dictionary.h"
#include "integration/history_integration.h"
#include "integration/reconstruction_quality.h"
#include "integration/signatures.h"
#include "integration/union_integrator.h"
#include "io/scenario_io.h"
#include "metrics/quality.h"
#include "obs/obs.h"
#include "selection/algorithms.h"
#include "selection/budgeted_greedy.h"
#include "selection/cost.h"
#include "selection/frequency_selection.h"
#include "selection/gain.h"
#include "selection/matroid.h"
#include "selection/online_selector.h"
#include "selection/profit.h"
#include "selection/selector.h"
#include "source/schedule.h"
#include "source/source_history.h"
#include "source/source_simulator.h"
#include "source/source_spec.h"
#include "stats/descriptive.h"
#include "stats/exponential.h"
#include "stats/histogram.h"
#include "stats/kaplan_meier.h"
#include "stats/poisson.h"
#include "stats/step_function.h"
#include "workloads/bl_generator.h"
#include "workloads/blplus_generator.h"
#include "workloads/gdelt_generator.h"
#include "workloads/scenario.h"
#include "workloads/slice_roster.h"
#include "world/domain.h"
#include "world/entity.h"
#include "world/world.h"
#include "world/world_simulator.h"
