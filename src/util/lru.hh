/**
 * @file
 * The LRU replacement rule of the set-associative AHRT (paper
 * Section 3.1), written once and shared by its two users:
 *
 *  - core::AssociativeTable, which applies it once per dynamic branch
 *    as the table is probed;
 *  - trace::PredecodedTrace::ahrtResolution, which replays it once
 *    per (trace, geometry) over the pc stream alone — which way a
 *    record lands in never depends on outcomes or payloads.
 *
 * One implementation means the two cannot drift apart;
 * tests/test_predecode pins the replay against a cold table.
 */

#ifndef TLAT_UTIL_LRU_HH
#define TLAT_UTIL_LRU_HH

#include <cstdint>

namespace tlat::util
{

/** The replacement state of one way: the fields the rule reads. */
struct LruWay
{
    std::uint64_t tag = 0;
    std::uint64_t lastUse = 0;
    bool valid = false;

    bool operator==(const LruWay &other) const = default;
};

/** What one access did to its set. */
template <typename Way>
struct LruAccess
{
    /** The way hit or re-allocated. */
    Way *way;
    bool hit;
    /** A miss that displaced a valid way. */
    bool evicted;
};

/**
 * One access for @p tag at time @p tick to the @p ways ways starting
 * at @p set. A valid way holding @p tag hits. Otherwise the way with
 * the smallest lastUse (the lowest-numbered one on ties) is
 * re-allocated to @p tag. Either way the touched way's lastUse
 * becomes @p tick. @p Way is any type with tag, lastUse and valid
 * members laid out one way per element.
 */
template <typename Way>
inline LruAccess<Way>
lruAccess(Way *set, unsigned ways, std::uint64_t tag,
          std::uint64_t tick)
{
    // Hits dominate, so the victim scan runs only after a miss.
    Way *const end = set + ways;
    for (Way *way = set; way != end; ++way) {
        if (way->valid && way->tag == tag) {
            way->lastUse = tick;
            return LruAccess<Way>{way, true, false};
        }
    }
    Way *victim = set;
    for (Way *way = set + 1; way != end; ++way) {
        if (way->lastUse < victim->lastUse)
            victim = way;
    }
    const bool evicted = victim->valid;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = tick;
    return LruAccess<Way>{victim, false, evicted};
}

} // namespace tlat::util

#endif // TLAT_UTIL_LRU_HH
