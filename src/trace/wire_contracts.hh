/**
 * @file
 * Trace-layer layout contracts: the in-memory BranchRecord the hot
 * loop streams, the packed TLTR wire record, and the predecoded SoA
 * lane element types, each pinned with a static_assert.
 *
 * These pins used to live in core/contracts.hh, but the TU that
 * *implements* the wire format (trace_io.cc) must re-evaluate them,
 * and trace/ sits below core/ in the layer DAG (util → isa/trace →
 * core/sim → predictors/workloads/pipeline → harness → bench/tools,
 * enforced by tools/tlat_lint.py layer-order) — so the trace-owned
 * contracts live here, in the layer that owns the types, and
 * core/contracts.hh includes this header to keep the whole battery
 * visible in one place. Defines no runtime symbols; free to include.
 */

#ifndef TLAT_TRACE_WIRE_CONTRACTS_HH
#define TLAT_TRACE_WIRE_CONTRACTS_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "predecode.hh"
#include "record.hh"
#include "trace_io.hh"

namespace tlat::trace
{

// ---------------------------------------------------------------------
// Wire/layout contracts: the 24-byte in-memory record and the 18-byte
// packed TLTR v2 record. BranchRecord additionally carries its own
// static_assert at the definition (record.hh); repeating the pin here
// keeps every contract the trace hot path depends on in one battery.
// ---------------------------------------------------------------------

static_assert(sizeof(BranchRecord) == 24 &&
                  alignof(BranchRecord) == 8,
              "BranchRecord layout drifted from the 24-byte/8-align "
              "contract the trace hot path is sized for");
static_assert(kTltrWireRecordSize ==
                  2 * sizeof(std::uint64_t) + 2 * sizeof(std::uint8_t),
              "TLTR wire record must stay pc u64 + target u64 + "
              "cls u8 + flags u8 = 18 bytes; bump kTltrFormatVersion "
              "if the wire layout changes");
static_assert(kTltrFormatVersion == 2,
              "TLTR format version changed: update the wire-layout "
              "contracts here and the format notes in "
              "trace/trace_io.hh together");

// The branch classes fit the 2-bit-exclusive flags byte encoding
// (taken = bit 0, call = bit 1, class in its own byte below
// NumClasses).
static_assert(static_cast<unsigned>(BranchClass::NumClasses) <= 255,
              "BranchClass must fit the one-byte TLTR class field");

// ---------------------------------------------------------------------
// Predecoded SoA lane contracts (predecode.hh): the fused SoA loops
// and the per-geometry lanes are sized around these exact element
// types — a u32 branch id (2^32-1 unique static branches, asserted at
// build time), u64 packed-outcome words, u32 set/slot indices, a u8
// per-record AHRT way and u64 HHRT lines. Widening any of them silently
// doubles hot-lane memory traffic, which is the very thing the
// predecode layer exists to remove.
// ---------------------------------------------------------------------

static_assert(std::is_same_v<BranchId, std::uint32_t>,
              "the dense branch-id lane is sized for u32 ids");
static_assert(PredecodedTrace::kOutcomeWordBits == 64,
              "the packed outcome bitvector uses u64 words");
static_assert(
    std::is_same_v<decltype(AhrtResolution::sets),
                   std::vector<std::uint32_t>> &&
        std::is_same_v<decltype(AhrtResolution::ways),
                       std::vector<std::uint8_t>>,
    "AHRT resolution drifted from the u32-set/u8-way lane layout");
static_assert(
    std::is_same_v<decltype(HashedLane::indices),
                   std::vector<std::uint32_t>> &&
        std::is_same_v<decltype(HashedLane::lines),
                       std::vector<std::uint64_t>>,
    "HHRT index lane drifted from the u32-index/u64-line layout");

} // namespace tlat::trace

#endif // TLAT_TRACE_WIRE_CONTRACTS_HH
