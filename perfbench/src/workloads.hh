/**
 * @file
 * The three benchmark workloads. Each has an untraced run, which
 * reports the end-to-end metrics, and a traced ladder run, which
 * records spans around the library calls it makes and reports the
 * per-layer metrics. README.md maps every metric to its layer and
 * workload.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

void runPaperSweep(const RunOptions &options, Result &result);
void runServeTenants(const RunOptions &options, Result &result);
void runTraceStream(const RunOptions &options, Result &result);

void ladderPaperSweep(const RunOptions &options, Result &result,
                      Tracer &tracer);
void ladderServeTenants(const RunOptions &options, Result &result,
                        Tracer &tracer);
void ladderTraceStream(const RunOptions &options, Result &result,
                       Tracer &tracer);
/** Isolated drive-path timings of the core predictors. */
void ladderCore(const RunOptions &options, Result &result);

/**
 * Reports the span ladder of one workload: each listed layer's share
 * of the root spans' duration (ladder.self_frac.<workload>.<layer>),
 * the root's own share (ladder.unattributed_frac.<workload>) and the
 * tracing overhead, traced against untraced root durations
 * (ladder.trace_overhead_frac.<workload>).
 */
void reportLadder(Result &result, const Tracer &tracer,
                  const std::string &workload,
                  const std::vector<std::string> &layers,
                  const std::vector<double> &untraced_seconds);

/** Repetitions of each ladder step: more when --seconds allows. */
int ladderRepeats(const RunOptions &options);

/**
 * Runs @p untraced and @p traced @p repeats times each, swapping which
 * goes first every repeat, so warm-up and drift of the host fall on
 * both sides of the tracing overhead alike.
 */
template <typename Untraced, typename Traced>
void
alternate(int repeats, Untraced &&untraced, Traced &&traced)
{
    for (int i = 0; i < repeats; ++i) {
        if (i % 2 == 0) {
            untraced();
            traced();
        } else {
            traced();
            untraced();
        }
    }
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
