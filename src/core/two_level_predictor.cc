#include "two_level_predictor.hh"

#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "checkpoint.hh"
#include "contracts.hh"
#include "lane_prober.hh"
#include "util/simd.hh"
#include "util/string_utils.hh"

namespace tlat::core
{

namespace
{

PatternTable
makePatternTable(const TwoLevelConfig &config)
{
    if (config.counterBits > 0) {
        return PatternTable(
            config.historyBits,
            PatternTable::CounterEntries{config.counterBits});
    }
    return PatternTable(config.historyBits, config.automaton,
                        config.automatonInitState);
}

} // namespace

TwoLevelPredictor::TwoLevelPredictor(const TwoLevelConfig &config)
    : config_(config),
      history_mask_(static_cast<std::uint32_t>(
          lowMask(config.historyBits))),
      pattern_table_(makePatternTable(config))
{
    initial_entry_.history =
        config_.initHistoryOnes ? history_mask_ : 0;
    initial_entry_.cachedPrediction =
        pattern_table_.predict(initial_entry_.history);
    hrt_ = makeHrt();
}

std::unique_ptr<HistoryTable<TwoLevelPredictor::HrtEntry>>
TwoLevelPredictor::makeHrt() const
{
    return makeHistoryTable(config_.hrtKind, config_.hrtEntries,
                            config_.associativity, initial_entry_,
                            config_.addrShift, config_.hhrtHash);
}

std::string
TwoLevelPredictor::name() const
{
    // Table 2 notation: AT(AHRT(512,12SR),PT(2^12,A2),)
    const std::string hrt_part =
        config_.hrtKind == TableKind::Ideal
            ? format("IHRT(,%uSR)", config_.historyBits)
            : format("%s(%zu,%uSR)", tableKindName(config_.hrtKind),
                     config_.hrtEntries, config_.historyBits);
    const std::string entry =
        config_.counterBits > 0
            ? format("C%u", config_.counterBits)
            : std::string(automatonName(config_.automaton));
    return format("AT(%s,PT(2^%u,%s),)", hrt_part.c_str(),
                  config_.historyBits, entry.c_str());
}

TwoLevelPredictor::HrtEntry &
TwoLevelPredictor::lookup(std::uint64_t pc)
{
    if (last_entry_ && last_pc_ == pc)
        return *last_entry_;
    last_pc_ = pc;
    last_entry_ = &hrt_->lookup(pc);
    return *last_entry_;
}

bool
TwoLevelPredictor::predict(const trace::BranchRecord &record)
{
    HrtEntry &entry = lookup(record.pc);
    const bool prediction = config_.cachedPredictionBit
        ? entry.cachedPrediction
        : pattern_table_.predict(entry.history);
    if (config_.speculativeHistoryUpdate) {
        // Record the pre-speculation pattern, then shift the
        // predicted outcome in so younger fetches see fresh history.
        in_flight_[record.pc].push_back(
            Speculation{entry.history, prediction});
        entry.history = ((entry.history << 1) |
                         (prediction ? 1u : 0u)) &
                        history_mask_;
        if (config_.cachedPredictionBit) {
            entry.cachedPrediction =
                pattern_table_.predict(entry.history);
        }
    }
    return prediction;
}

void
TwoLevelPredictor::update(const trace::BranchRecord &record)
{
    HrtEntry &entry = lookup(record.pc);

    if (config_.speculativeHistoryUpdate) {
        const auto it = in_flight_.find(record.pc);
        if (it != in_flight_.end() && !it->second.empty()) {
            const Speculation speculation = it->second.front();
            it->second.pop_front();
            // delta on the pattern the prediction actually used.
            pattern_table_.update(speculation.pattern, record.taken);
            if (speculation.predicted != record.taken) {
                // Misprediction: the pipeline flushes. Repair the
                // register from the resolved outcome and squash the
                // younger speculations of this branch.
                entry.history = ((speculation.pattern << 1) |
                                 (record.taken ? 1u : 0u)) &
                                history_mask_;
                ++squash_events_;
                squashed_speculations_ += it->second.size();
                it->second.clear();
            }
            // Erase drained pcs: keeping empty deques would grow the
            // map by one node per static branch for the whole run.
            if (it->second.empty())
                in_flight_.erase(it);
            if (config_.cachedPredictionBit) {
                entry.cachedPrediction =
                    pattern_table_.predict(entry.history);
            }
            last_pc_ = ~std::uint64_t{0};
            last_entry_ = nullptr;
            return;
        }
        // No matching predict() (unpaired use): fall through to the
        // non-speculative path below.
    }

    // delta on the entry the *old* pattern indexes, then the history
    // register shifts in the outcome (paper Section 2.1).
    pattern_table_.update(entry.history, record.taken);
    entry.history = ((entry.history << 1) |
                     (record.taken ? 1u : 0u)) &
                    history_mask_;
    if (config_.cachedPredictionBit)
        entry.cachedPrediction = pattern_table_.predict(entry.history);
    // The memo only spans one predict/update pair — the next
    // execution of this branch is a fresh HRT access (LRU recency and
    // hit statistics must see it).
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

template <typename Table, AutomatonPolicy Ops>
void
TwoLevelPredictor::fusedBatch(Table &table, const Ops &ops,
                              std::span<const trace::BranchRecord>
                                  records,
                              AccuracyCounter &accuracy)
{
    // Flag loads hoisted out of the loop; the branches on them are
    // perfectly predicted. Everything else — the HRT probe, lambda,
    // delta — inlines through the concrete Table/Ops types.
    const bool cached = config_.cachedPredictionBit;
    const bool speculative = config_.speculativeHistoryUpdate;
    const std::uint32_t mask = history_mask_;

    for (const trace::BranchRecord &record : records) {
        if (record.cls != trace::BranchClass::Conditional)
            continue;
        HrtEntry &entry = table.lookupDirect(record.pc);
        // One PT index computation serves both lambda and delta: the
        // prediction reads and the update writes the same entry (the
        // one the pre-shift history selects), so keep a reference.
        std::uint8_t &state = pattern_table_.stateAt(entry.history);
        const bool predicted =
            cached ? entry.cachedPrediction : ops.predict(state);
        accuracy.record(predicted == record.taken);

        if (speculative) {
            // Mirrors the predict()/update() pair exactly: the
            // speculative shift happens at "predict" time against the
            // pre-speculation pattern, then resolution updates delta
            // on that pattern and repairs the register on a
            // misprediction. With strictly paired calls the in-flight
            // deque holds exactly the one speculation we are about to
            // resolve, so the bookkeeping reduces to locals. The
            // cached-bit recomputes keep the reference ordering: the
            // first reads the PT *before* delta lands on the
            // speculated pattern, the second after.
            const std::uint32_t spec_pattern = entry.history;
            entry.history = ((entry.history << 1) |
                             (predicted ? 1u : 0u)) &
                            mask;
            if (cached) {
                entry.cachedPrediction =
                    pattern_table_.predictWith(ops, entry.history);
            }
            state = ops.next(state, record.taken);
            if (predicted != record.taken) {
                entry.history = ((spec_pattern << 1) |
                                 (record.taken ? 1u : 0u)) &
                                mask;
                ++squash_events_;
            }
            if (cached) {
                entry.cachedPrediction =
                    pattern_table_.predictWith(ops, entry.history);
            }
        } else {
            state = ops.next(state, record.taken);
            entry.history = ((entry.history << 1) |
                             (record.taken ? 1u : 0u)) &
                            mask;
            if (cached) {
                entry.cachedPrediction =
                    pattern_table_.predictWith(ops, entry.history);
            }
        }
    }
}

template <typename Prober, AutomatonPolicy Ops>
void
TwoLevelPredictor::fusedBatchSoa(Prober &prober, const Ops &ops,
                                 const trace::PredecodedView &view,
                                 AccuracyCounter &accuracy)
{
    // Mirrors fusedBatch() line for line; the only differences are
    // where the operands come from — the HRT entry via the prober's
    // precomputed index lane instead of a per-branch pc derivation,
    // and the outcome via the packed bitvector instead of the AoS
    // record — so the bit-equivalence argument is fusedBatch's own.
    const bool cached = config_.cachedPredictionBit;
    const bool speculative = config_.speculativeHistoryUpdate;
    const std::uint32_t mask = history_mask_;
    const trace::PredecodedTrace &soa = view.soa();
    const std::span<const trace::BranchId> ids = soa.branchIds();

    for (std::size_t i = 0; i < ids.size(); ++i) {
        HrtEntry &entry = prober.probe(ids[i]);
        const bool taken = soa.taken(i);
        std::uint8_t &state = pattern_table_.stateAt(entry.history);
        const bool predicted =
            cached ? entry.cachedPrediction : ops.predict(state);
        accuracy.record(predicted == taken);

        if (speculative) {
            const std::uint32_t spec_pattern = entry.history;
            entry.history = ((entry.history << 1) |
                             (predicted ? 1u : 0u)) &
                            mask;
            if (cached) {
                entry.cachedPrediction =
                    pattern_table_.predictWith(ops, entry.history);
            }
            state = ops.next(state, taken);
            if (predicted != taken) {
                entry.history = ((spec_pattern << 1) |
                                 (taken ? 1u : 0u)) &
                                mask;
                ++squash_events_;
            }
            if (cached) {
                entry.cachedPrediction =
                    pattern_table_.predictWith(ops, entry.history);
            }
        } else {
            state = ops.next(state, taken);
            entry.history = ((entry.history << 1) |
                             (taken ? 1u : 0u)) &
                            mask;
            if (cached) {
                entry.cachedPrediction =
                    pattern_table_.predictWith(ops, entry.history);
            }
        }
    }
}

bool
TwoLevelPredictor::tryLanePass(const trace::PredecodedView &view,
                               AccuracyCounter &accuracy)
{
    if (config_.cachedPredictionBit ||
        config_.speculativeHistoryUpdate)
        return false;
    const auto luts =
        fusedLutsFor(config_.automaton, config_.counterBits);
    if (!luts)
        return false;

    const trace::PredecodedTrace &soa = view.soa();
    const std::span<const trace::BranchId> ids = soa.branchIds();
    const std::uint32_t mask = history_mask_;
    std::uint8_t *states = pattern_table_.statesData();
    // Record i's PT index is its register's pre-shift value; the
    // register then shifts in the outcome (paper Section 2.1).
    const auto advance = [&soa, mask](std::uint32_t &history,
                                      std::size_t i) {
        const std::uint32_t pattern = history;
        history =
            ((history << 1) | (soa.taken(i) ? 1u : 0u)) & mask;
        return pattern;
    };

    switch (config_.hrtKind) {
      case TableKind::Ideal: {
        // Pinned to the scalar level, the IHRT keeps its lane-prober
        // loop: it is the twin simd_speedup measures the vector
        // kernel against.
        if (util::simd::activeLevel() == util::simd::Level::Scalar)
            return false;
        auto &table = static_cast<IdealTable<HrtEntry> &>(*hrt_);
        // Resolve each unique pc exactly once, in id order — ids are
        // assigned at first appearance, so this is the order the
        // reference loop first touches them — then account the
        // remaining probes as repeat hits. Totals match the
        // per-record loop's statistics exactly.
        const std::span<const std::uint64_t> pcs = soa.uniquePcs();
        std::vector<HrtEntry *> entries(pcs.size());
        std::vector<std::uint32_t> history(pcs.size());
        for (std::size_t id = 0; id < pcs.size(); ++id) {
            entries[id] = &table.lookupDirect(pcs[id]);
            history[id] = entries[id]->history;
        }
        table.noteRepeatHits(ids.size() - pcs.size());
        fusedLanePass(
            soa,
            [&](std::size_t i) { return advance(history[ids[i]], i); },
            states, *luts, accuracy);
        for (std::size_t id = 0; id < pcs.size(); ++id)
            entries[id]->history = history[id];
        return true;
      }
      case TableKind::Associative:
        return coldAhrtPass<std::uint32_t>(
            static_cast<AssociativeTable<HrtEntry> &>(*hrt_), soa,
            [](const HrtEntry &entry) { return entry.history; },
            [&](std::uint32_t *history, const auto &slot_of) {
                fusedLanePass(
                    soa,
                    [&](std::size_t i) {
                        return advance(history[slot_of(i)], i);
                    },
                    states, *luts, accuracy);
            },
            [](HrtEntry &entry, std::uint32_t history) {
                entry.history = history;
            });
      case TableKind::Hashed: {
        // The HHRT probe stays per record (it books the aliasing
        // attribution), but the PT work moves to the fused pass.
        auto &table = static_cast<HashedTable<HrtEntry> &>(*hrt_);
        const trace::HashedLane &lane = soa.hashedLane(
            table.addrShift(), table.size(),
            table.hashKind() == HashKind::Mixed);
        fusedLanePass(
            soa,
            [&](std::size_t i) {
                const trace::BranchId id = ids[i];
                return advance(
                    table.lookupAtIndex(lane.indices[id], lane.lines[id])
                        .history,
                    i);
            },
            states, *luts, accuracy);
        return true;
      }
    }
    return false;
}

void
TwoLevelPredictor::simulateBatch(const trace::PredecodedView &view,
                                 AccuracyCounter &accuracy)
{
    // Same unsafe-state guard as the AoS overload; delegating to the
    // AoS twin (which re-checks and defers to the reference loop)
    // keeps the fallback decision in exactly one place per overload.
    if (last_entry_ != nullptr || !in_flight_.empty()) {
        simulateBatch(view.records(), accuracy);
        return;
    }
    if (tryLanePass(view, accuracy))
        return;
    if (config_.hrtKind == TableKind::Ideal) {
        IdealLaneProber<HrtEntry> prober(
            static_cast<IdealTable<HrtEntry> &>(*hrt_),
            view.soa().uniquePcs());
        if (visitAutomaton(config_.automaton, config_.counterBits,
                           [&](const auto &ops) {
                               fusedBatchSoa(prober, ops, view,
                                             accuracy);
                           }))
            return;
    }
    // A warm AHRT, or an HHRT in a mode the lane pass does not cover:
    // the AoS loop derives the index from the pc as cheaply as a lane
    // would (the per-layer ladder measured it faster than the old
    // AHRT and HHRT lane probers).
    simulateBatch(view.records(), accuracy);
}

void
TwoLevelPredictor::simulateBatch(std::span<const trace::BranchRecord>
                                     records,
                                 AccuracyCounter &accuracy)
{
    // A live lookup memo (a predict() awaiting its update()) or
    // in-flight speculation means we are mid predict/update pair;
    // only the reference loop reproduces the memo'd probe accounting
    // exactly, so defer to it, as for an automaton kind with no
    // policy. The harness never hits this — it is a guard for direct
    // API users. The per-table visitor stays out of line, one function
    // per HRT flavour: inlined into visitTable, all fifteen loops
    // shared one function's registers and the warm AHRT loop spilled
    // its bounds (about 7% more per branch).
    const bool fused =
        last_entry_ == nullptr && in_flight_.empty() &&
        visitTable(*hrt_, [&](auto &table) __attribute__((noinline)) {
            return visitAutomaton(config_.automaton,
                                  config_.counterBits,
                                  [&](const auto &ops) {
                                      fusedBatch(table, ops, records,
                                                 accuracy);
                                  });
        });
    if (!fused)
        BranchPredictor::simulateBatch(records, accuracy);
}

void
TwoLevelPredictor::reset()
{
    pattern_table_.reset();
    hrt_->reset();
    in_flight_.clear();
    squash_events_ = 0;
    squashed_speculations_ = 0;
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

void
TwoLevelPredictor::collectMetrics(RunMetrics &metrics) const
{
    const TableStats &stats = hrt_->stats();
    metrics.hrtHits = stats.hits;
    metrics.hrtMisses = stats.misses;
    metrics.hrtEvictions = stats.evictions;
    metrics.hrtAliasedLookups = stats.aliasedLookups;
    metrics.ptStateHistogram = pattern_table_.stateHistogram();
    metrics.squashEvents = squash_events_;
    metrics.squashedSpeculations = squashed_speculations_;
    metrics.inFlightBranches = in_flight_.size();
}

namespace
{

// v2: TableStats gained eviction/aliasing counters and the HHRT
// serializes its per-slot last-line attribution state.
// v3: core/checkpoint.hh framing — end sentinel plus the
// fully-consumed check, and loads commit atomically.
constexpr std::uint32_t kCheckpointVersion = 3;

/** Geometry/behaviour fingerprint; checkpoints only restore onto an
 *  identically configured predictor. */
std::uint64_t
configFingerprint(const TwoLevelConfig &config)
{
    std::uint64_t fp = 0xf17e;
    const auto mixIn = [&fp](std::uint64_t value) {
        fp = mix64(fp ^ value);
    };
    mixIn(static_cast<std::uint64_t>(config.hrtKind));
    mixIn(config.hrtEntries);
    mixIn(config.associativity);
    mixIn(config.historyBits);
    mixIn(static_cast<std::uint64_t>(config.automaton));
    mixIn(config.counterBits);
    mixIn(config.cachedPredictionBit ? 1 : 0);
    mixIn(config.speculativeHistoryUpdate ? 1 : 0);
    mixIn(static_cast<std::uint64_t>(config.hhrtHash));
    mixIn(config.addrShift);
    return fp;
}

} // namespace

bool
TwoLevelPredictor::saveCheckpoint(std::ostream &os) const
{
    // Drained deques are erased in update(), so a non-empty map means
    // live speculation — and checkpointing requires none.
    if (!in_flight_.empty())
        return false;

    ckpt::writeHeader(os, kCheckpointVersion,
                      configFingerprint(config_));
    pattern_table_.saveState(os);
    hrt_->saveState(os, [](std::ostream &out, const HrtEntry &entry) {
        ckpt::putScalar(out, entry.history);
        ckpt::putScalar(out, static_cast<std::uint8_t>(
                                 entry.cachedPrediction ? 1 : 0));
    });
    ckpt::writeEnd(os);
    return static_cast<bool>(os);
}

bool
TwoLevelPredictor::loadCheckpoint(std::istream &is)
{
    if (!ckpt::readHeader(is, kCheckpointVersion,
                          configFingerprint(config_)))
        return false;
    // Parse the whole stream into same-geometry temporaries first;
    // the live tables are only touched by the commit below, so a
    // stream that fails anywhere — truncated mid-table, wrong
    // sentinel, trailing junk — leaves the predictor exactly as it
    // was.
    PatternTable pattern_table = pattern_table_;
    if (!pattern_table.loadState(is))
        return false;
    std::unique_ptr<HistoryTable<HrtEntry>> hrt = makeHrt();
    const bool loaded = hrt->loadState(
        is, [](std::istream &in, HrtEntry &entry) {
            std::uint8_t cached;
            if (!ckpt::getScalar(in, entry.history) ||
                !ckpt::getScalar(in, cached) || cached > 1)
                return false;
            entry.cachedPrediction = cached != 0;
            return true;
        });
    if (!loaded || !ckpt::readEnd(is))
        return false;

    pattern_table_ = std::move(pattern_table);
    hrt_ = std::move(hrt);
    in_flight_.clear();
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
    return true;
}

} // namespace tlat::core
