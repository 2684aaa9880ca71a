/**
 * @file
 * Accumulators used by the harness to aggregate prediction accuracy the
 * way the paper reports it: per-benchmark accuracy plus integer / FP /
 * total geometric means.
 */

#ifndef TLAT_UTIL_STATS_HH
#define TLAT_UTIL_STATS_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace tlat
{

/** Running hit/miss tally with accuracy helpers. */
class AccuracyCounter
{
  public:
    void
    record(bool correct)
    {
        ++total_;
        if (correct)
            ++hits_;
        if (capture_ != nullptr)
            *capture_++ = correct ? 1 : 0;
    }

    /**
     * Optional per-record correctness capture: while set, every
     * record() additionally writes one byte (1 = correct) through the
     * cursor and advances it. The caller owns the buffer and must
     * size it for every record() it expects; pass nullptr to detach.
     * Combining predictors use this to replay each component's
     * per-branch outcomes through the chooser without re-simulating.
     */
    void captureInto(std::uint8_t *cursor) { capture_ = cursor; }

    /** Current capture cursor (nullptr when detached). */
    std::uint8_t *captureCursor() const { return capture_; }

    /**
     * Folds in @p total records of which @p hits were correct, as if
     * record() had been called that many times — used by batch paths
     * (the SIMD fused pass) that tally hits out-of-band. The caller
     * is responsible for having written the per-record capture bytes
     * itself when capture is attached; this only advances the cursor.
     */
    void
    recordBulk(std::uint64_t hits, std::uint64_t total)
    {
        hits_ += hits;
        total_ += total;
        if (capture_ != nullptr)
            capture_ += total;
    }

    void
    merge(const AccuracyCounter &other)
    {
        hits_ += other.hits_;
        total_ += other.total_;
    }

    void
    reset()
    {
        hits_ = 0;
        total_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return total_ - hits_; }
    std::uint64_t total() const { return total_; }

    /** Fraction correct in [0, 1]; 0 when empty. */
    double
    accuracy() const
    {
        return total_ == 0 ? 0.0
                           : static_cast<double>(hits_) / total_;
    }

    /** Accuracy in percent. */
    double accuracyPercent() const { return accuracy() * 100.0; }

    /** Miss rate in percent. */
    double
    missPercent() const
    {
        return total_ == 0 ? 0.0 : 100.0 - accuracyPercent();
    }

  private:
    std::uint64_t hits_ = 0;
    std::uint64_t total_ = 0;
    std::uint8_t *capture_ = nullptr;
};

/**
 * Register-resident tally for a fused batch loop: hits, total and the
 * capture cursor live in locals rather than behind the counter's
 * reference, so a record() is an add and (when capturing) one byte
 * store, with no read-modify-write of the counter or reload of its
 * cursor on the loop's critical path. Loops that produce correctness
 * 64 branches at a time (packed outcome words) use recordWord().
 * flush() folds the local counts into the counter with one
 * recordBulk(); the capture bytes were already written through the
 * same cursor the counter advances.
 */
class BatchTally
{
  public:
    explicit BatchTally(AccuracyCounter &accuracy)
        : accuracy_(accuracy), capture_(accuracy.captureCursor())
    {
    }

    BatchTally(const BatchTally &) = delete;
    BatchTally &operator=(const BatchTally &) = delete;

    ~BatchTally() { flush(); }

    void
    record(bool correct)
    {
        hits_ += correct ? 1 : 0;
        ++total_;
        if (capture_ != nullptr)
            *capture_++ = correct ? 1 : 0;
    }

    /**
     * Tallies @p count (1..64) records at once: bit j of @p correct
     * is record j's correctness; bits from @p count up are ignored.
     * One popcount replaces @p count record() calls.
     */
    void
    recordWord(std::uint64_t correct, unsigned count)
    {
        if (count < 64)
            correct &= (std::uint64_t{1} << count) - 1;
        hits_ += static_cast<std::uint64_t>(std::popcount(correct));
        total_ += count;
        if (capture_ != nullptr) {
            for (unsigned j = 0; j < count; ++j)
                *capture_++ =
                    static_cast<std::uint8_t>((correct >> j) & 1);
        }
    }

    /** Folds the local counts into the counter (idempotent). */
    void
    flush()
    {
        accuracy_.recordBulk(hits_, total_);
        hits_ = 0;
        total_ = 0;
    }

  private:
    AccuracyCounter &accuracy_;
    std::uint8_t *capture_;
    std::uint64_t hits_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * Geometric mean of a set of non-negative values; 0 if the set is
 * empty or contains a 0 (a 0% accuracy cell is valid input).
 */
double geometricMean(const std::vector<double> &values);

/** Arithmetic mean; 0 if empty. */
double arithmeticMean(const std::vector<double> &values);

/** Streaming min/max/mean/variance accumulator (Welford). */
class RunningStats
{
  public:
    void record(double value);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return mean_; }
    double min() const { return min_; }
    double max() const { return max_; }

    /** Sample variance; 0 with fewer than two samples. */
    double variance() const;
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Counts occurrences of string-labelled categories, preserving order. */
class CategoryCounter
{
  public:
    void record(const std::string &category, std::uint64_t weight = 1);

    std::uint64_t count(const std::string &category) const;
    std::uint64_t total() const { return total_; }

    /** Fraction of the total for a category, in [0, 1]. */
    double fraction(const std::string &category) const;

    /** Categories in first-seen order. */
    const std::vector<std::string> &categories() const
    {
        return order_;
    }

  private:
    std::vector<std::string> order_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;

    int indexOf(const std::string &category) const;
};

} // namespace tlat

#endif // TLAT_UTIL_STATS_HH
