#include "predecode.hh"

#include <limits>
#include <unordered_map>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace tlat::trace
{

PredecodedTrace::PredecodedTrace(
    std::span<const BranchRecord> conditionals)
{
    ids_.reserve(conditionals.size());
    outcome_words_.assign(
        (conditionals.size() + kOutcomeWordBits - 1) /
            kOutcomeWordBits,
        0);

    // First-appearance dictionary: ids are assigned in trace order, so
    // the mapping (and with it every lane) is a pure function of the
    // conditional stream — independent of who builds it and when.
    std::unordered_map<std::uint64_t, BranchId> dictionary;
    std::size_t position = 0;
    for (const BranchRecord &record : conditionals) {
        tlat_assert(record.cls == BranchClass::Conditional,
                    "predecode input must be conditional-only");
        const auto next_id = static_cast<BranchId>(pcs_.size());
        auto [it, inserted] =
            dictionary.try_emplace(record.pc, next_id);
        if (inserted) {
            tlat_assert(
                pcs_.size() <
                    std::numeric_limits<BranchId>::max(),
                "trace exceeds the 2^32-1 unique-branch-id space");
            pcs_.push_back(record.pc);
        }
        ids_.push_back(it->second);
        if (record.taken) {
            outcome_words_[position / kOutcomeWordBits] |=
                std::uint64_t{1} << (position % kOutcomeWordBits);
        }
        ++position;
    }
}

const AhrtResolution &
PredecodedTrace::ahrtResolution(unsigned addr_shift,
                                std::size_t num_sets,
                                unsigned ways) const
{
    tlat_assert(isPowerOfTwo(num_sets),
                "AHRT set count must be a power of two, got ",
                num_sets);
    tlat_assert(ways >= 1 && ways <= AhrtResolution::kMaxWays,
                "AHRT associativity out of the way-lane range: ", ways);
    const util::MutexLock lock(lanes_mutex_);
    auto &slot = ahrt_resolutions_[AhrtKey{addr_shift, num_sets, ways}];
    if (!slot) {
        auto resolution = std::make_unique<AhrtResolution>();
        // Set and tag of each unique PC, derived exactly as
        // AssociativeTable::lookupDirect derives them.
        std::vector<std::uint64_t> tags;
        tags.reserve(pcs_.size());
        resolution->sets.reserve(pcs_.size());
        for (const std::uint64_t pc : pcs_) {
            const std::uint64_t line = pc >> addr_shift;
            resolution->sets.push_back(static_cast<std::uint32_t>(
                line & (num_sets - 1)));
            tags.push_back(line / num_sets);
        }
        // Replay the table's own LRU rule from a cold table.
        resolution->image.assign(num_sets * ways, util::LruWay{});
        resolution->ways.reserve(ids_.size());
        std::uint64_t tick = 0;
        for (const BranchId id : ids_) {
            util::LruWay *set =
                &resolution->image[std::size_t{resolution->sets[id]} *
                                   ways];
            const util::LruAccess<util::LruWay> access =
                util::lruAccess(set, ways, tags[id], ++tick);
            resolution->ways.push_back(
                static_cast<std::uint8_t>(access.way - set));
            if (access.hit) {
                ++resolution->hits;
            } else {
                ++resolution->misses;
                if (access.evicted)
                    ++resolution->evictions;
            }
        }
        resolution->tick = tick;
        slot = std::move(resolution);
    }
    return *slot;
}

bool
PredecodedTrace::hasAhrtResolution(unsigned addr_shift,
                                   std::size_t num_sets,
                                   unsigned ways) const
{
    const util::MutexLock lock(lanes_mutex_);
    return ahrt_resolutions_.count(AhrtKey{addr_shift, num_sets, ways}) !=
           0;
}

const HashedLane &
PredecodedTrace::hashedLane(unsigned addr_shift,
                            std::size_t table_size, bool mixed) const
{
    tlat_assert(isPowerOfTwo(table_size),
                "HHRT size must be a power of two, got ", table_size);
    const util::MutexLock lock(lanes_mutex_);
    auto &slot =
        hashed_lanes_[HashedKey{addr_shift, table_size, mixed}];
    if (!slot) {
        auto lane = std::make_unique<HashedLane>();
        lane->indices.reserve(pcs_.size());
        lane->lines.reserve(pcs_.size());
        for (const std::uint64_t pc : pcs_) {
            // Must match HashedTable::lookupDirect bit-for-bit: this
            // is where the per-probe mix64 recomputation goes to die —
            // one hash per unique PC per geometry, ever.
            const std::uint64_t line = pc >> addr_shift;
            lane->indices.push_back(static_cast<std::uint32_t>(
                (mixed ? mix64(line) : line) & (table_size - 1)));
            lane->lines.push_back(line);
        }
        slot = std::move(lane);
    }
    return *slot;
}

} // namespace tlat::trace
