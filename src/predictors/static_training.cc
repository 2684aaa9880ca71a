#include "static_training.hh"

#include "core/lane_prober.hh"
#include "util/bitops.hh"
#include "util/string_utils.hh"

namespace tlat::predictors
{

using core::TableKind;

StaticTrainingPredictor::StaticTrainingPredictor(
    const StaticTrainingConfig &config)
    : config_(config),
      history_mask_(static_cast<std::uint32_t>(
          lowMask(config.historyBits))),
      counts_(std::size_t{1} << config.historyBits)
{
    derivePresetBits();
    hrt_ = core::makeHistoryTable(config_.hrtKind, config_.hrtEntries,
                                  config_.associativity,
                                  StEntry{history_mask_},
                                  config_.addrShift);
}

std::string
StaticTrainingPredictor::name() const
{
    const std::string hrt_part =
        config_.hrtKind == TableKind::Ideal
            ? format("IHRT(,%uSR)", config_.historyBits)
            : format("%s(%zu,%uSR)",
                     core::tableKindName(config_.hrtKind),
                     config_.hrtEntries, config_.historyBits);
    return format("ST(%s,PT(2^%u,PB),%s)", hrt_part.c_str(),
                  config_.historyBits,
                  config_.data == core::DataMode::Diff ? "Diff"
                                                       : "Same");
}

void
StaticTrainingPredictor::train(const trace::TraceBuffer &trace)
{
    // Software profiling: ideal per-branch history, regardless of the
    // run-time HRT flavour. Histories start all-ones like the HRT and
    // live in a dense vector indexed by the predecoded branch id.
    const std::shared_ptr<const trace::PredecodedTrace> soa =
        trace.predecoded();
    std::vector<std::uint32_t> histories(soa->uniquePcCount(),
                                         history_mask_);
    const std::span<const trace::BranchId> ids = soa->branchIds();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        std::uint32_t &history = histories[ids[i]];
        const bool taken = soa->taken(i);
        PatternCounts &counts = counts_[history];
        counts.taken += taken ? 1 : 0;
        counts.notTaken += taken ? 0 : 1;
        history = ((history << 1) | (taken ? 1u : 0u)) & history_mask_;
    }
    derivePresetBits();
}

void
StaticTrainingPredictor::derivePresetBits()
{
    // Ties and never-seen patterns predict taken (the 60% prior).
    preset_.resize(counts_.size());
    for (std::size_t pattern = 0; pattern < counts_.size(); ++pattern)
        preset_[pattern] =
            counts_[pattern].taken >= counts_[pattern].notTaken ? 1
                                                                : 0;
}

bool
StaticTrainingPredictor::presetBit(std::uint32_t pattern) const
{
    return preset_[pattern & history_mask_] != 0;
}

StaticTrainingPredictor::StEntry &
StaticTrainingPredictor::lookup(std::uint64_t pc)
{
    if (last_entry_ && last_pc_ == pc)
        return *last_entry_;
    last_pc_ = pc;
    last_entry_ = &hrt_->lookup(pc);
    return *last_entry_;
}

bool
StaticTrainingPredictor::predict(const trace::BranchRecord &record)
{
    return presetBit(lookup(record.pc).history);
}

void
StaticTrainingPredictor::update(const trace::BranchRecord &record)
{
    StEntry &entry = lookup(record.pc);
    entry.history = ((entry.history << 1) |
                     (record.taken ? 1u : 0u)) &
                    history_mask_;
    // One predict/update pair is one logical table access.
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

template <typename Probe>
void
StaticTrainingPredictor::fusedBatchSoa(Probe &&probe,
                                       const trace::PredecodedTrace &soa,
                                       AccuracyCounter &accuracy)
{
    // One probe per branch, as the reference pair makes through its
    // predict()/update() memo, so the table statistics match.
    const std::uint8_t *preset = preset_.data();
    const std::span<const trace::BranchId> ids = soa.branchIds();
    BatchTally tally(accuracy);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        StEntry &entry = probe(ids[i]);
        const bool taken = soa.taken(i);
        tally.record((preset[entry.history] != 0) == taken);
        entry.history =
            ((entry.history << 1) | (taken ? 1u : 0u)) & history_mask_;
    }
}

bool
StaticTrainingPredictor::tryColdAhrtPass(const trace::PredecodedTrace &soa,
                                         AccuracyCounter &accuracy)
{
    // The registers evolve independently of the (preset) predictions,
    // so each record's pattern is known up front: build it into a
    // lane tile, then read the preset bits for the whole tile.
    const std::uint32_t mask = history_mask_;
    const std::uint8_t *preset = preset_.data();
    return core::coldAhrtPass<std::uint32_t>(
        static_cast<core::AssociativeTable<StEntry> &>(*hrt_), soa,
        [](const StEntry &entry) { return entry.history; },
        [&](std::uint32_t *history, const auto &slot_of) {
            BatchTally tally(accuracy);
            core::forEachLaneTile(
                soa.size(),
                [&](std::size_t i) {
                    std::uint32_t &register_ = history[slot_of(i)];
                    const std::uint32_t pattern = register_;
                    register_ = ((register_ << 1) |
                                 (soa.taken(i) ? 1u : 0u)) &
                                mask;
                    return pattern;
                },
                [&](const std::uint32_t *lane, std::size_t base,
                    std::size_t count) {
                    for (std::size_t j = 0; j < count; ++j) {
                        tally.record((preset[lane[j]] != 0) ==
                                     soa.taken(base + j));
                    }
                });
        },
        [](StEntry &entry, std::uint32_t history) {
            entry.history = history;
        });
}

void
StaticTrainingPredictor::simulateBatch(const trace::PredecodedView &view,
                                       AccuracyCounter &accuracy)
{
    if (last_entry_ != nullptr) {
        // Mid predict/update pair: the memo models a shared physical
        // access, so hand off to the reference loop which honours it.
        BranchPredictor::simulateBatch(view.records(), accuracy);
        return;
    }
    const trace::PredecodedTrace &soa = view.soa();
    switch (config_.hrtKind) {
      case TableKind::Ideal: {
        core::IdealLaneProber<StEntry> prober(
            static_cast<core::IdealTable<StEntry> &>(*hrt_),
            soa.uniquePcs());
        fusedBatchSoa(
            [&](trace::BranchId id) -> StEntry & {
                return prober.probe(id);
            },
            soa, accuracy);
        break;
      }
      case TableKind::Associative: {
        if (tryColdAhrtPass(soa, accuracy))
            break;
        // A warm AHRT: derive each unique PC's set and tag once for
        // the batch, then probe per record.
        auto &table =
            static_cast<core::AssociativeTable<StEntry> &>(*hrt_);
        const std::span<const std::uint64_t> pcs = soa.uniquePcs();
        std::vector<std::uint32_t> sets(pcs.size());
        std::vector<std::uint64_t> tags(pcs.size());
        for (std::size_t id = 0; id < pcs.size(); ++id) {
            const std::uint64_t line = pcs[id] >> table.addrShift();
            sets[id] =
                static_cast<std::uint32_t>(line & (table.numSets() - 1));
            tags[id] = line / table.numSets();
        }
        fusedBatchSoa(
            [&](trace::BranchId id) -> StEntry & {
                return table.lookupWithSetTag(sets[id], tags[id]);
            },
            soa, accuracy);
        break;
      }
      case TableKind::Hashed: {
        core::HashedLaneProber<StEntry> prober(
            static_cast<core::HashedTable<StEntry> &>(*hrt_), soa);
        fusedBatchSoa(
            [&](trace::BranchId id) -> StEntry & {
                return prober.probe(id);
            },
            soa, accuracy);
        break;
      }
    }
}

void
StaticTrainingPredictor::reset()
{
    counts_.assign(counts_.size(), PatternCounts{});
    derivePresetBits();
    hrt_->reset();
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

} // namespace tlat::predictors
