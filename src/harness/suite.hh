/**
 * @file
 * Benchmark suite: generates and caches the branch traces of the nine
 * SPEC-mirror workloads.
 *
 * Traces are produced by running the micro88 simulator to a
 * conditional-branch budget (the paper simulated twenty million
 * conditional branches per benchmark; the default here is smaller so
 * the whole figure set regenerates in seconds — override with the
 * TLAT_BRANCH_BUDGET environment variable, accuracy converges long
 * before the paper's budget on these workloads).
 *
 * When TLAT_TRACE_CACHE_DIR names a directory, generated traces are
 * persisted there in the TLTR binary format, keyed
 * "<benchmark>-<dataset>-<budget>.tltr", and loaded back on the next
 * run instead of re-simulating — this removes the per-run preload
 * cost of every sweep/figure invocation. Cache files are validated on
 * load (format version, trace name) and silently regenerated when
 * stale; saves go through write-then-rename so concurrent runs never
 * observe partial files.
 */

#ifndef TLAT_HARNESS_SUITE_HH
#define TLAT_HARNESS_SUITE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace_buffer.hh"
#include "workloads/workload.hh"

namespace tlat::util
{
class ThreadPool;
}

namespace tlat::harness
{

/** Default conditional-branch budget per benchmark trace. */
constexpr std::uint64_t kDefaultBranchBudget = 300000;

/**
 * True when a trace of @p budget conditional branches fits in
 * physical memory: trace generation reserves two BranchRecord vectors
 * of @p budget entries up front, so a larger budget can only end in
 * std::bad_alloc. The one bound both the --budget option and
 * TLAT_BRANCH_BUDGET check.
 */
bool budgetFitsMemory(std::uint64_t budget);

/**
 * Reads TLAT_BRANCH_BUDGET, falling back to the default; a value that
 * is not a positive size or fails budgetFitsMemory() is fatal.
 */
std::uint64_t branchBudgetFromEnv();

/** Lazily generated, cached traces for the nine benchmarks. */
class BenchmarkSuite
{
  public:
    /** @param budget Conditional branches per generated trace. */
    explicit BenchmarkSuite(std::uint64_t budget =
                                branchBudgetFromEnv());

    /** Benchmark names in paper order. */
    std::vector<std::string> benchmarks() const;

    /** The testing-data-set trace of a benchmark (cached). */
    const trace::TraceBuffer &testTrace(const std::string &benchmark);

    /**
     * The training-data-set trace, or nullptr when the benchmark has
     * no usable distinct training set (paper Table 3: eqntott,
     * matrix300, fpppp, tomcatv).
     */
    const trace::TraceBuffer *
    trainTrace(const std::string &benchmark);

    /**
     * Generates every not-yet-cached trace on @p pool and caches it.
     * Trace content depends only on (benchmark, data set, budget), so
     * the cache ends up bit-identical to demand generation no matter
     * how many workers run. After this, testTrace()/trainTrace() only
     * read the cache, which is what makes the parallel sweep's
     * read-only sharing of traces safe.
     *
     * @param include_training Also generate the training-set traces.
     */
    void preload(util::ThreadPool &pool, bool include_training);

    /** True for the floating point benchmarks. */
    bool isFloatingPoint(const std::string &benchmark) const;

    std::uint64_t budget() const { return budget_; }

  private:
    const trace::TraceBuffer &
    traceFor(const std::string &benchmark,
             const std::string &dataSet);

    /**
     * Loads the trace from the TLAT_TRACE_CACHE_DIR binary cache or
     * generates (and caches) it. Pure function of
     * (benchmark, dataSet, budget) — safe to call from preload()
     * workers concurrently.
     */
    trace::TraceBuffer generateTrace(const std::string &benchmark,
                                     const std::string &dataSet) const;

    std::uint64_t budget_;
    std::map<std::string, trace::TraceBuffer> cache_;
};

} // namespace tlat::harness

#endif // TLAT_HARNESS_SUITE_HH
