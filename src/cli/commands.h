#pragma once

#include <ostream>

#include "cli/args.h"
#include "common/result.h"
#include "estimation/degradation.h"
#include "serve/protocol.h"

namespace freshsel::cli {

/// The freshsel command-line interface. Three subcommands cover the
/// library's workflow on disk-resident data:
///
///   freshsel simulate --workload bl|gdelt --out DIR
///       [--seed N --scale X --locations N --categories N]
///     Generates a scenario and writes world.csv + source_NNN.csv +
///     manifest.csv into DIR.
///
///   freshsel characterize --dir DIR --t0 N
///     Loads a scenario directory, learns the change models and prints the
///     per-source characterization table (size, coverage, learned update
///     interval, capture-effectiveness plateaus).
///
///   freshsel select --dir DIR --t0 N
///       [--metric coverage|accuracy|freshness|mix --gain
///        linear|quad|step|data --algorithm greedy|maxsub|grasp|budgeted
///        --points N --stride N --budget X --max-divisor M --kappa K
///        --restarts R --seed S]
///     Learns models and runs time-aware source selection, printing the
///     chosen sources (with frequency divisors when --max-divisor > 1) and
///     the expected integration quality.
///
///   freshsel report show RUN.json | diff A.json B.json |
///       check-regression FRESH.json --baseline BASE.json
///     Inspects --metrics-out / --report-out run reports: `show` renders
///     the stages, hot counters, histogram percentiles and the per-round
///     selection decision table; `diff` prints counter/value deltas and
///     the first decision where two runs diverge; `check-regression`
///     compares a fresh bench report against a committed baseline with
///     per-metric tolerance bands and fails (non-zero exit) on regression.
///
/// All commands write human-readable tables to `out` and return a Status;
/// `RunMain` wraps them with error reporting for main().
Status RunSimulate(const ArgMap& args, std::ostream& out);
Status RunCharacterize(const ArgMap& args, std::ostream& out);
Status RunSelect(const ArgMap& args, std::ostream& out);
Status RunReportCommand(const ArgMap& args, std::ostream& out);

/// The selection daemon (`freshsel serve`, serve_command.cc): ingests
/// --dir once, then answers concurrent NDJSON queries on a unix socket or
/// loopback TCP until SIGTERM/SIGINT, draining in-flight work before
/// returning. `freshsel query` is the matching one-shot client; with the
/// default --op query it prints the response's `text` payload, which is
/// byte-identical to the equivalent batch `freshsel select` run.
Status RunServe(const ArgMap& args, std::ostream& out);
Status RunQuery(const ArgMap& args, std::ostream& out);

/// Shared argument hygiene: flags that were provided but never read are
/// typos; commands that take no positionals reject stray tokens.
Status CheckUnreadFlags(const ArgMap& args);
Status CheckNoPositionals(const ArgMap& args);

/// `--strict` aborts on unfittable sources; `--degrade` (the default)
/// substitutes subdomain priors and reports them. Shared by every command
/// that learns profiles (`characterize`, `select`, `serve`).
Result<estimation::DegradationMode> ReadDegradationMode(const ArgMap& args);

/// Reads the selection-query knobs shared by `select` (batch) and `query`
/// (daemon client) into wire QueryParams - one reader, so a flag added for
/// one command cannot silently diverge from the other. Unset flags keep the
/// QueryParams defaults, and the result must pass serve::ValidateQuery, so
/// a bad value fails before any I/O.
Result<serve::QueryParams> ReadQueryParams(const ArgMap& args);

/// Dispatches on args.command(); prints usage on unknown commands.
int RunMain(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

}  // namespace freshsel::cli
