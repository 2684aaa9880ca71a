/**
 * @file
 * The per-layer ladder: span accounting shared by the workloads, and
 * the core layer's drive paths timed in isolation.
 */

#include <algorithm>
#include <iostream>

#include "core/generalized_two_level.hh"
#include "harness/experiment.hh"
#include "predictors/scheme_factory.hh"
#include "sim/simulator.hh"
#include "util/simd.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace perfbench
{

int
ladderRepeats(const RunOptions &options)
{
    return std::clamp(2 * static_cast<int>(options.seconds / 6.0), 2, 4);
}

void
reportLadder(Result &result, const Tracer &tracer,
             const std::string &workload,
             const std::vector<std::string> &layers,
             const std::vector<double> &untraced_seconds)
{
    std::map<std::string, double> self;
    std::vector<double> traced;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
        const Tracer::Span &span = tracer.spans()[i];
        if (span.parent >= 0 || span.name != workload)
            continue;
        traced.push_back(span.end - span.start);
        for (const auto &[layer, seconds] :
             tracer.layerSelfTimes(static_cast<int>(i)))
            self[layer] += seconds;
    }
    double root = 0.0;
    for (const double seconds : traced)
        root += seconds;

    std::cout << "{\"ladder\": {\"workload\": \"" << workload
              << "\", \"roots\": " << traced.size()
              << ", \"root_s\": " << root << ", \"self_s\": {";
    const char *separator = "";
    for (const auto &[layer, seconds] : self) {
        std::cout << separator << "\"" << layer << "\": " << seconds;
        separator = ", ";
    }
    std::cout << "}}}\n";
    for (const auto &[layer, seconds] : self) {
        if (layer != "unattributed" &&
            std::find(layers.begin(), layers.end(), layer) ==
                layers.end())
            std::cerr << "perfbench: unexpected layer '" << layer
                      << "' in the " << workload << " ladder\n";
    }

    for (const std::string &layer : layers) {
        result.metric("ladder.self_frac." + workload + "." + layer,
                      self[layer] / root, "ratio");
    }
    result.metric("ladder.unattributed_frac." + workload,
                  self["unattributed"] / root, "ratio");
    result.metric("ladder.trace_overhead_frac." + workload,
                  median(traced) / median(untraced_seconds) - 1.0,
                  "ratio");
}

namespace
{

using namespace tlat;

enum class DrivePath
{
    Reference,
    Aos,
    Soa,
};

/** Median ns per conditional branch of one drive path. */
double
nsPerBranch(core::BranchPredictor &predictor,
            const trace::TraceBuffer &trace, DrivePath path,
            int passes, std::uint64_t &hits)
{
    std::vector<double> ns;
    for (int i = 0; i <= passes; ++i) {
        predictor.reset();
        AccuracyCounter accuracy;
        const double start = nowSeconds();
        switch (path) {
        case DrivePath::Reference:
            accuracy = harness::measureReference(predictor, trace);
            break;
        case DrivePath::Aos:
            predictor.simulateBatch(trace.conditionalView(), accuracy);
            break;
        case DrivePath::Soa:
            predictor.simulateBatch(trace.predecodedView(), accuracy);
            break;
        }
        const double seconds = nowSeconds() - start;
        hits = accuracy.hits();
        if (i > 0) // pass 0 warms caches and the predecode lanes
            ns.push_back(seconds /
                         static_cast<double>(accuracy.total()) * 1e9);
    }
    return median(ns);
}

std::unique_ptr<core::BranchPredictor>
makeScheme(const std::string &key)
{
    if (key == "pag") {
        core::GeneralizedConfig config;
        config.historyScope = core::HistoryScope::PerAddress;
        config.patternScope = core::PatternScope::Global;
        config.historyBits = 12;
        return std::make_unique<core::GeneralizedTwoLevelPredictor>(
            config);
    }
    static const std::map<std::string, std::string> kSchemes = {
        {"ahrt", "AT(AHRT(512,12SR),PT(2^12,A2),)"},
        {"ihrt", "AT(IHRT(,12SR),PT(2^12,A2),)"},
        {"hhrt", "AT(HHRT(512,12SR),PT(2^12,A2),)"},
        {"gsh", "GSH(12,A2)"},
        {"ls", "LS(AHRT(512,A2),,)"},
        {"cmb", "CMB(AT(AHRT(512,12SR),PT(2^12,A2),),"
                "LS(AHRT(512,A2),,),CT(2^12))"},
    };
    return predictors::makePredictor(kSchemes.at(key));
}

} // namespace

void
ladderCore(const RunOptions &options, Result &result)
{
    // gcc has the most static branches of the mirrors, so it is the
    // trace on which table organisation matters most.
    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("gcc")->buildTest(),
        options.size.sweepBudget);
    trace.predecoded();
    const int passes = 3 + 2 * ladderRepeats(options);

    for (const std::string key :
         {"ahrt", "ihrt", "hhrt", "pag", "gsh", "ls", "cmb"}) {
        const auto predictor = makeScheme(key);
        std::uint64_t hits[3] = {};
        const double ref = nsPerBranch(*predictor, trace,
                                       DrivePath::Reference, passes,
                                       hits[0]);
        const double aos = nsPerBranch(*predictor, trace, DrivePath::Aos,
                                       passes, hits[1]);
        const double soa = nsPerBranch(*predictor, trace, DrivePath::Soa,
                                       passes, hits[2]);
        result.metric("core.ref_ns_per_branch." + key, ref, "ns");
        result.metric("core.aos_ns_per_branch." + key, aos, "ns");
        result.metric("core.soa_ns_per_branch." + key, soa, "ns");
        result.check(hits[0] == hits[1] && hits[1] == hits[2],
                     "drive paths of " + key + " disagree on hits");
    }

    // The active SIMD level against the same path pinned to scalar.
    const auto ihrt = makeScheme("ihrt");
    std::uint64_t hits[2] = {};
    const double active =
        nsPerBranch(*ihrt, trace, DrivePath::Soa, passes, hits[0]);
    double scalar = 0.0;
    {
        const util::simd::ScopedLevelOverride pin(
            util::simd::Level::Scalar);
        scalar = nsPerBranch(*ihrt, trace, DrivePath::Soa, passes,
                             hits[1]);
    }
    result.metric("core.simd_speedup.ihrt", scalar / active, "ratio");
    result.check(hits[0] == hits[1],
                 "SIMD and scalar IHRT disagree on hits");
}

} // namespace perfbench
