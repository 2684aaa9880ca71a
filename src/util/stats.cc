#include "stats.hh"

#include <cmath>

#include "logging.hh"

namespace tlat
{

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    bool has_zero = false;
    for (double v : values) {
        tlat_assert(v >= 0.0,
                    "geometric mean requires non-negative values");
        if (v == 0.0)
            has_zero = true;
        else
            log_sum += std::log(v);
    }
    // One zero factor zeroes the product (a 0%-accuracy cell).
    if (has_zero)
        return 0.0;
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
arithmeticMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

void
RunningStats::record(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        if (value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

void
RunningStats::reset()
{
    count_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
RunningStats::variance() const
{
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
CategoryCounter::record(const std::string &category, std::uint64_t weight)
{
    int idx = indexOf(category);
    if (idx < 0) {
        order_.push_back(category);
        counts_.push_back(0);
        idx = static_cast<int>(order_.size()) - 1;
    }
    counts_[static_cast<std::size_t>(idx)] += weight;
    total_ += weight;
}

std::uint64_t
CategoryCounter::count(const std::string &category) const
{
    const int idx = indexOf(category);
    return idx < 0 ? 0 : counts_[static_cast<std::size_t>(idx)];
}

double
CategoryCounter::fraction(const std::string &category) const
{
    return total_ == 0
        ? 0.0
        : static_cast<double>(count(category)) /
              static_cast<double>(total_);
}

int
CategoryCounter::indexOf(const std::string &category) const
{
    for (std::size_t i = 0; i < order_.size(); ++i) {
        if (order_[i] == category)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace tlat
