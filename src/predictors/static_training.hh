/**
 * @file
 * Lee & Smith's Static Training scheme [Lee & Smith 1984], written
 * "ST(HRT(size,kSR),PT(2^k,PB),Same|Diff)" in the paper's Table 2.
 *
 * Like Two-Level Adaptive Training, the scheme keeps a k-bit history
 * register per branch and a 2^k-entry pattern table — but the pattern
 * table holds *preset prediction bits* computed from a profiling run
 * rather than live automata. Given a history pattern, the prediction
 * is fixed for the whole execution; this is exactly the property the
 * paper attacks: "the same statistics may not be applicable to
 * different data sets" (the Diff configurations of Figure 8).
 *
 * Profiling is software (paper Section 5.2), so training tracks every
 * static branch ideally; the configured HRT implementation applies to
 * the measured run only. Patterns never observed in training predict
 * taken, consistent with the ~60% overall taken rate.
 *
 * Training walks the training trace's predecoded lanes
 * (trace/predecode.hh): a dense per-branch-id history vector stands
 * in for a pc-keyed map, and the preset bits are derived into a
 * 2^k-byte lane once per train()/reset(). The measured run has a
 * fused fast path over a predecoded view: over a cold AHRT, the
 * shared lane pass of core/lane_prober.hh builds each record's
 * pattern from the trace's AHRT resolution and reads preset bits per
 * L1 tile; otherwise one HRT probe per branch, then a preset-lane
 * read.
 */

#ifndef TLAT_PREDICTORS_STATIC_TRAINING_HH
#define TLAT_PREDICTORS_STATIC_TRAINING_HH

#include <memory>
#include <vector>

#include "core/branch_predictor.hh"
#include "core/history_table.hh"
#include "core/scheme_config.hh"

namespace tlat::predictors
{

/** Configuration of a Static Training predictor. */
struct StaticTrainingConfig
{
    core::TableKind hrtKind = core::TableKind::Associative;
    std::size_t hrtEntries = 512;
    unsigned associativity = 4;
    unsigned historyBits = 12;
    /** Same/Diff label for the scheme name (the harness picks the
     *  actual training trace). */
    core::DataMode data = core::DataMode::Same;
    unsigned addrShift = 2;
};

/** Preset-pattern-bit predictor trained by profiling. */
class StaticTrainingPredictor : public core::BranchPredictor
{
  public:
    explicit StaticTrainingPredictor(
        const StaticTrainingConfig &config);

    std::string name() const override;
    bool needsTraining() const override { return true; }
    void train(const trace::TraceBuffer &trace) override;

    bool predict(const trace::BranchRecord &record) override;
    void update(const trace::BranchRecord &record) override;
    void reset() override;

    using core::BranchPredictor::simulateBatch;

    /**
     * Fused fast path over a predecoded view: a cold AHRT runs the
     * lane pass (tryColdAhrtPass); otherwise one HRT probe per branch
     * (through the IHRT/HHRT lane probers, or for a warm AHRT with a
     * set/tag pair derived once per unique pc per batch),
     * a preset-lane read, and a register-resident tally.
     * Bit-identical to the predict()/update() loop; drops off to it
     * on mid-pair memo state.
     */
    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;

    /** Preset bit for a pattern (tests; true = predict taken). */
    bool presetBit(std::uint32_t pattern) const;

    /** Run-time HRT access counters (tests). */
    const core::TableStats &hrtStats() const { return hrt_->stats(); }

    const StaticTrainingConfig &config() const { return config_; }

  private:
    struct StEntry
    {
        std::uint32_t history = 0;
    };

    StEntry &lookup(std::uint64_t pc);

    /** Re-derives preset_ from counts_ (after train() and reset()). */
    void derivePresetBits();

    /** Fused SoA loop body; @p probe(id) is the HRT entry of id. */
    template <typename Probe>
    void fusedBatchSoa(Probe &&probe,
                       const trace::PredecodedTrace &soa,
                       AccuracyCounter &accuracy);

    /**
     * The cold-AHRT lane pass (core/lane_prober.hh): patterns built
     * into lane tiles through the trace's AHRT resolution, then a
     * preset-bit read per tile. False, touching nothing, when the
     * AHRT is warm.
     */
    bool tryColdAhrtPass(const trace::PredecodedTrace &soa,
                         AccuracyCounter &accuracy);

    StaticTrainingConfig config_;
    std::uint32_t history_mask_;

    /** Profiling tallies, indexed by pattern. */
    struct PatternCounts
    {
        std::uint64_t taken = 0;
        std::uint64_t notTaken = 0;
    };

    std::vector<PatternCounts> counts_;

    /** Preset prediction bit per pattern (1 = taken), from counts_. */
    std::vector<std::uint8_t> preset_;

    /** Run-time history registers. */
    std::unique_ptr<core::HistoryTable<StEntry>> hrt_;

    std::uint64_t last_pc_ = ~std::uint64_t{0};
    StEntry *last_entry_ = nullptr;
};

} // namespace tlat::predictors

#endif // TLAT_PREDICTORS_STATIC_TRAINING_HH
