/**
 * @file
 * The simple profiling scheme of the paper's Section 5.3: a profiling
 * run counts, per static branch, how often it was taken and not
 * taken; the more frequent direction is encoded as a static
 * prediction bit. The run-time prediction is that bit; branches never
 * seen in profiling fall back to predict-taken (the majority
 * direction overall).
 *
 * The paper profiles and measures on the same data set, so the
 * reported accuracy is exactly sum(max(taken, not_taken)) / total.
 *
 * Training walks the training trace's predecoded lanes
 * (trace/predecode.hh): counts are tallied per dense branch id and
 * folded into the pc-keyed map once per unique pc. The measured run
 * has a fused fast path over a predecoded view that resolves each
 * unique pc of the view's dictionary to its bit once, then compares
 * 64 id-indexed predictions at a time against the packed outcome
 * word.
 */

#ifndef TLAT_PREDICTORS_PROFILE_PREDICTOR_HH
#define TLAT_PREDICTORS_PROFILE_PREDICTOR_HH

#include <cstdint>
#include <unordered_map>

#include "core/branch_predictor.hh"

namespace tlat::predictors
{

/** Per-branch majority-direction profiling predictor. */
class ProfilePredictor : public core::BranchPredictor
{
  public:
    std::string name() const override { return "Profile"; }
    bool needsTraining() const override { return true; }

    void train(const trace::TraceBuffer &trace) override;

    bool
    predict(const trace::BranchRecord &record) override
    {
        return predictTaken(record.pc);
    }

    void update(const trace::BranchRecord &) override {}

    using core::BranchPredictor::simulateBatch;

    /**
     * Fused fast path over a predecoded view: one map lookup per
     * unique pc of the view, then an id-indexed bit per branch,
     * packed and scored 64 branches per outcome word.
     * Bit-identical to the predict()/update() loop, which it drops
     * off to when every branch of the view is a distinct pc (the
     * per-pc lane would save nothing).
     */
    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;

    void reset() override { counts_.clear(); }

    /** Number of static branches profiled. */
    std::size_t profiledBranches() const { return counts_.size(); }

  private:
    struct Counts
    {
        std::uint64_t taken = 0;
        std::uint64_t notTaken = 0;
    };

    /** The profiled direction of @p pc; unseen branches: taken. */
    bool
    predictTaken(std::uint64_t pc) const
    {
        const auto it = counts_.find(pc);
        if (it == counts_.end())
            return true; // unseen branch: majority prior is taken
        return it->second.taken >= it->second.notTaken;
    }

    std::unordered_map<std::uint64_t, Counts> counts_;
};

} // namespace tlat::predictors

#endif // TLAT_PREDICTORS_PROFILE_PREDICTOR_HH
