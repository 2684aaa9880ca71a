/**
 * @file
 * Shared pieces of perfbench: run options, the in-memory
 * span tracer, order statistics, peak RSS, the host/build fingerprint
 * and the result line every run ends with.
 *
 * Spans are recorded only from the benchmark's own files, around
 * calls into the library's public functions, so the library itself
 * carries no tracing code. A span's layer is the prefix of its name
 * up to the first '.', which is always the name of a src/ module
 * (sim, trace, core, harness, serve).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Input sizes of one run; `tiny` exists for the smoke test. */
struct Size
{
    std::string name;
    /** Conditional branches per trace for paper-sweep. */
    std::uint64_t sweepBudget = 0;
    /** Records (all branch classes) per serve tenant. */
    std::uint64_t serveRecords = 0;
    /** Records in the trace-stream file. */
    std::uint64_t streamRecords = 0;
};

Size sizeNamed(const std::string &name);

/** Everything a workload needs from the command line. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    Size size;
    /** Scratch directory inside the checkout (trace files, spans). */
    std::string workDir;
    /** Directory of the committed expected outputs. */
    std::string expectedDir;
};

/** Worker threads available to this process (what `nproc` prints). */
unsigned availableCpus();

inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** @p items in an order that depends only on @p seed. */
std::vector<std::string> shuffled(std::vector<std::string> items,
                                  std::uint64_t seed);

/** Median of @p values (0 for an empty list). */
double median(std::vector<double> values);

/** The @p fraction quantile, nearest-rank on the sorted values. */
double quantile(std::vector<double> values, double fraction);

/** Peak resident set of this process so far, MiB (ru_maxrss). */
double peakRssMib();

/**
 * Records nested spans of the calling thread. Disabled tracers make
 * Scope a no-op that never reads the clock, so a traced run and its
 * untraced twin execute the same benchmark code.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of durations of spans called @p name. */
    double total(const std::string &name) const;
    /** Durations of spans called @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Self time (duration minus direct children) of every span below
     * root span @p root, summed per layer. The root's own self time
     * is reported under "unattributed".
     */
    std::map<std::string, double> layerSelfTimes(int root) const;

    /** Writes the spans to @p path as Chrome trace events, one a line. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    int current_ = -1;
    std::vector<Span> spans_;
};

/** Collects named metrics and the correctness tally of one run. */
class Result
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Counts one checked operation; false marks it failed. */
    void check(bool ok, const std::string &what);

    /** Prints the final result line (the last line of stdout). */
    void print() const;

  private:
    std::vector<std::pair<std::string, std::pair<double,
                                                 std::string>>>
        metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Prints the host and build fingerprint as one JSON line. */
void printFingerprint(const RunOptions &options);

/** Reads a whole file; empty string when it cannot be read. */
std::string readFile(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
