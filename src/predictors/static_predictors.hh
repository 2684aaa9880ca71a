/**
 * @file
 * The static comparison schemes of the paper's Section 5.3:
 * Always Taken, Always Not Taken, and Backward Taken / Forward Not
 * Taken (BTFN). None of them keep run-time state.
 */

#ifndef TLAT_PREDICTORS_STATIC_PREDICTORS_HH
#define TLAT_PREDICTORS_STATIC_PREDICTORS_HH

#include "core/branch_predictor.hh"
#include "core/checkpoint.hh"

namespace tlat::predictors
{

/**
 * Stateless schemes still carry framed (payload-free) checkpoints —
 * magic, version, a per-class fingerprint and the end sentinel — so
 * a combining predictor with a static component can checkpoint. The
 * load obeys the usual contract (full validation, trailing junk
 * rejected) even though there is nothing to restore.
 */
class StatelessPredictor : public core::BranchPredictor
{
  public:
    bool
    saveCheckpoint(std::ostream &os) const override
    {
        core::ckpt::writeHeader(os, 1,
                                core::ckpt::mixString(0x57a71c,
                                                      name()));
        core::ckpt::writeEnd(os);
        return static_cast<bool>(os);
    }

    bool
    loadCheckpoint(std::istream &is) override
    {
        return core::ckpt::readHeader(
                   is, 1,
                   core::ckpt::mixString(0x57a71c, name())) &&
               core::ckpt::readEnd(is);
    }
};

/** Predicts every conditional branch taken (~60% accuracy, Fig. 9). */
class AlwaysTakenPredictor : public StatelessPredictor
{
  public:
    std::string name() const override { return "AlwaysTaken"; }

    bool
    predict(const trace::BranchRecord &) override
    {
        return true;
    }

    void update(const trace::BranchRecord &) override {}
    void reset() override {}
};

/** Predicts every conditional branch not taken. */
class AlwaysNotTakenPredictor : public StatelessPredictor
{
  public:
    std::string name() const override { return "AlwaysNotTaken"; }

    bool
    predict(const trace::BranchRecord &) override
    {
        return false;
    }

    void update(const trace::BranchRecord &) override {}
    void reset() override {}
};

/**
 * Backward Taken, Forward Not taken [Smith 1981]: effective on
 * loop-bound programs — a loop-closing backward branch misses only
 * once per loop — poor on irregular code (paper Figure 9: ~98% on
 * matrix300/tomcatv, often below 70% elsewhere).
 */
class BtfnPredictor final : public StatelessPredictor
{
  public:
    std::string name() const override { return "BTFN"; }

    bool
    predict(const trace::BranchRecord &record) override
    {
        return record.target < record.pc;
    }

    void update(const trace::BranchRecord &) override {}
    void reset() override {}

    /**
     * Fused fast path: the direction test inlined into a tally loop.
     * BTFN needs the target, which only the AoS records carry, so a
     * predecoded view reaches this through the base class's
     * view.records() unwrap. Callers pass conditional-only spans; at
     * the first non-conditional record the rest of the span drops off
     * to the reference loop, which owns the class filter.
     */
    void
    simulateBatch(std::span<const trace::BranchRecord> records,
                  AccuracyCounter &accuracy) override
    {
        BatchTally tally(accuracy);
        for (std::size_t i = 0; i < records.size(); ++i) {
            const trace::BranchRecord &record = records[i];
            if (record.cls != trace::BranchClass::Conditional) {
                tally.flush();
                BranchPredictor::simulateBatch(records.subspan(i),
                                               accuracy);
                return;
            }
            tally.record((record.target < record.pc) == record.taken);
        }
    }

    using StatelessPredictor::simulateBatch;
};

} // namespace tlat::predictors

#endif // TLAT_PREDICTORS_STATIC_PREDICTORS_HH
