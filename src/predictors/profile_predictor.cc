#include "profile_predictor.hh"

#include <algorithm>
#include <vector>

namespace tlat::predictors
{

void
ProfilePredictor::train(const trace::TraceBuffer &trace)
{
    const std::shared_ptr<const trace::PredecodedTrace> soa =
        trace.predecoded();
    std::vector<Counts> dense(soa->uniquePcCount());
    const std::span<const trace::BranchId> ids = soa->branchIds();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        // Branch-free: the outcome stream is data, not control flow.
        Counts &counts = dense[ids[i]];
        const bool taken = soa->taken(i);
        counts.taken += taken ? 1 : 0;
        counts.notTaken += taken ? 0 : 1;
    }
    // Accumulates across calls, like per-record tallying would.
    const std::span<const std::uint64_t> pcs = soa->uniquePcs();
    for (std::size_t id = 0; id < pcs.size(); ++id) {
        Counts &counts = counts_[pcs[id]];
        counts.taken += dense[id].taken;
        counts.notTaken += dense[id].notTaken;
    }
}

void
ProfilePredictor::simulateBatch(const trace::PredecodedView &view,
                                AccuracyCounter &accuracy)
{
    const trace::PredecodedTrace &soa = view.soa();
    if (soa.uniquePcCount() == soa.size()) {
        // No pc repeats (an empty view, a single-record chunk): the
        // per-pc lane would cost one lookup per branch plus its
        // allocation, which is the reference loop with extra steps.
        BranchPredictor::simulateBatch(view.records(), accuracy);
        return;
    }
    const std::span<const std::uint64_t> pcs = soa.uniquePcs();
    std::vector<std::uint8_t> bits(pcs.size());
    for (std::size_t id = 0; id < pcs.size(); ++id)
        bits[id] = predictTaken(pcs[id]) ? 1 : 0;

    const std::span<const trace::BranchId> ids = soa.branchIds();
    const std::span<const std::uint64_t> words = soa.outcomeWords();
    BatchTally tally(accuracy);
    for (std::size_t base = 0; base < ids.size(); base += 64) {
        const unsigned count = static_cast<unsigned>(
            std::min<std::size_t>(64, ids.size() - base));
        std::uint64_t predicted = 0;
        for (unsigned j = 0; j < count; ++j)
            predicted |= std::uint64_t{bits[ids[base + j]]} << j;
        tally.recordWord(~(predicted ^ words[base / 64]), count);
    }
}

} // namespace tlat::predictors
