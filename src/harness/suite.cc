#include "suite.hh"

#include <filesystem>
#include <optional>

#include <unistd.h>

#include "sim/simulator.hh"
#include "trace/trace_io.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace tlat::harness
{

namespace
{

/** Trace cache directory, or nullopt when caching is off. */
std::optional<std::string>
traceCacheDir()
{
    return util::envString("TLAT_TRACE_CACHE_DIR");
}

} // namespace

bool
budgetFitsMemory(std::uint64_t budget)
{
    const long pages = ::sysconf(_SC_PHYS_PAGES);
    const long page_size = ::sysconf(_SC_PAGESIZE);
    if (pages <= 0 || page_size <= 0)
        return true; // unknown: let the allocator decide
    const std::uint64_t memory = static_cast<std::uint64_t>(pages) *
                                 static_cast<std::uint64_t>(page_size);
    return budget <= memory / (2 * sizeof(trace::BranchRecord));
}

std::uint64_t
branchBudgetFromEnv()
{
    const auto text = util::envString("TLAT_BRANCH_BUDGET");
    if (!text)
        return kDefaultBranchBudget;
    const auto value = parseSize(*text);
    if (!value || *value == 0 || !budgetFitsMemory(*value)) {
        tlat_fatal("bad TLAT_BRANCH_BUDGET value '", *text, "'");
    }
    return *value;
}

BenchmarkSuite::BenchmarkSuite(std::uint64_t budget) : budget_(budget)
{
}

std::vector<std::string>
BenchmarkSuite::benchmarks() const
{
    return workloads::workloadNames();
}

namespace
{

/**
 * Loads the trace from the TLAT_TRACE_CACHE_DIR binary cache or
 * generates (and caches) it. Free function of exactly
 * (budget, benchmark, dataSet) so preload() workers can run it while
 * capturing only the budget value — no shared suite state reaches
 * the pool (guarded-state lint rule).
 */
trace::TraceBuffer
generateTraceToBudget(std::uint64_t budget,
                      const std::string &benchmark,
                      const std::string &dataSet)
{
    const auto dir = traceCacheDir();
    std::string path;
    if (dir) {
        path = *dir + "/" + benchmark + "-" + dataSet + "-" +
               std::to_string(budget) + ".tltr";
        if (auto cached = trace::loadFromFile(path)) {
            // The name check guards against a foreign file landing on
            // the cache key; a stale or corrupt file just regenerates.
            if (cached->name() == benchmark)
                return std::move(*cached);
        }
    }

    const auto workload = workloads::makeWorkload(benchmark);
    trace::TraceBuffer buffer =
        sim::collectTrace(workload->build(dataSet), budget);
    buffer.setName(benchmark);

    if (dir) {
        // Best-effort save; write-then-rename keeps a concurrent
        // process from ever observing a half-written cache file.
        std::error_code ec;
        std::filesystem::create_directories(*dir, ec);
        const std::string tmp =
            path + ".tmp." + std::to_string(::getpid());
        if (trace::saveToFile(buffer, tmp)) {
            std::filesystem::rename(tmp, path, ec);
            if (ec)
                std::filesystem::remove(tmp, ec);
        } else {
            std::filesystem::remove(tmp, ec);
        }
    }
    return buffer;
}

} // namespace

trace::TraceBuffer
BenchmarkSuite::generateTrace(const std::string &benchmark,
                              const std::string &dataSet) const
{
    return generateTraceToBudget(budget_, benchmark, dataSet);
}

const trace::TraceBuffer &
BenchmarkSuite::traceFor(const std::string &benchmark,
                         const std::string &dataSet)
{
    const std::string key = benchmark + "/" + dataSet;
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    auto [inserted, ok] =
        cache_.emplace(key, generateTrace(benchmark, dataSet));
    tlat_assert(ok, "duplicate trace cache entry");
    return inserted->second;
}

const trace::TraceBuffer &
BenchmarkSuite::testTrace(const std::string &benchmark)
{
    const auto workload = workloads::makeWorkload(benchmark);
    return traceFor(benchmark, workload->testSet());
}

void
BenchmarkSuite::preload(util::ThreadPool &pool, bool include_training)
{
    struct Pending
    {
        std::string key;
        std::string benchmark;
        std::string dataSet;
        trace::TraceBuffer buffer;
    };
    std::vector<Pending> pending;
    for (const std::string &benchmark : benchmarks()) {
        const auto workload = workloads::makeWorkload(benchmark);
        std::vector<std::string> sets{workload->testSet()};
        if (include_training) {
            if (const auto train = workload->trainSet())
                sets.push_back(*train);
        }
        for (const std::string &set : sets) {
            const std::string key = benchmark + "/" + set;
            if (!cache_.count(key))
                pending.push_back({key, benchmark, set, {}});
        }
    }

    // Workers capture only the pending slots and the budget value:
    // generation is a pure function of (budget, benchmark, data set),
    // and the cache_ commit below happens serially after the join.
    util::parallelFor(pool, pending.size(), [&pending,
                                             budget = budget_](
                                                std::size_t i) {
        Pending &job = pending[i];
        job.buffer = generateTraceToBudget(budget, job.benchmark,
                                           job.dataSet);
        // Compile the SoA predecode while we are still parallel: the
        // artifact is cached inside the buffer and re-shared by every
        // sweep cell, so no cell pays the dictionary build.
        job.buffer.predecoded();
    });

    for (Pending &job : pending)
        cache_.emplace(job.key, std::move(job.buffer));
}

const trace::TraceBuffer *
BenchmarkSuite::trainTrace(const std::string &benchmark)
{
    const auto workload = workloads::makeWorkload(benchmark);
    const auto train = workload->trainSet();
    if (!train)
        return nullptr;
    return &traceFor(benchmark, *train);
}

bool
BenchmarkSuite::isFloatingPoint(const std::string &benchmark) const
{
    return workloads::makeWorkload(benchmark)->isFloatingPoint();
}

} // namespace tlat::harness
