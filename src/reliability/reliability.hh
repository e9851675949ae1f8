/**
 * @file
 * Device reliability & aging state.
 *
 * ReliabilityModel is the one stateful object behind the subsystem:
 * it owns per-block wear (P/E cycles, last-erase tick, correction
 * history), composes the RberModel and EccEngine, and answers the
 * questions the rest of the simulator asks:
 *
 *  - NandArray::readPage: "what does ECC add to this sense?"
 *    (onRead — charges the retry ladder, tracks retirement votes)
 *  - Ftl: "has this block worn out?" (retirePending / markRetired —
 *    retired blocks leave the free pool for good, shrinking
 *    over-provisioning and accelerating GC)
 *  - Engine's scrub task: "which blocks need refreshing?" (scrubDue)
 *  - Engine's cost tables: "what read penalty should the offloader
 *    expect right now?" (typicalReadPenalty — feeds the §4.3.2
 *    data-movement estimates so offload decisions see device age)
 *
 * Fast-forward: preWearCycles and retentionDays initialize every
 * block as if the device had already served that history, so aging
 * sweeps start from an aged state without simulating years. The
 * equivalence contract (tested): fast-forwarding to N cycles leaves
 * the model in exactly the state N simulated erases per block would.
 *
 * Everything is deterministic — wear state advances only at defined
 * simulated-time points, and the only randomness is the per-block
 * jitter table derived from the run seed.
 */

#ifndef CONDUIT_RELIABILITY_RELIABILITY_HH
#define CONDUIT_RELIABILITY_RELIABILITY_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/reliability/ecc_engine.hh"
#include "src/reliability/rber_model.hh"
#include "src/sim/config.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace conduit::reliability
{

/** Cumulative reliability counters (DeviceSnapshot reporting). */
struct ReliabilityStats
{
    /** Reads that needed at least one retry step. */
    std::uint64_t retriedReads = 0;

    /** Total retry steps across all reads. */
    std::uint64_t eccRetries = 0;

    /** Reads that fell through to soft-decision decode. */
    std::uint64_t softDecodes = 0;

    /** Reads beyond the ECC's correction strength. */
    std::uint64_t uncorrectableReads = 0;

    /** Blocks permanently removed from service. */
    std::uint64_t retiredBlocks = 0;

    /** Background scrub passes executed. */
    std::uint64_t scrubPasses = 0;

    /** Blocks the scrubber refreshed (migrated + erased). */
    std::uint64_t scrubRefreshes = 0;

    /** Cold blocks the wear-leveler migrated out of low wear. */
    std::uint64_t wearLevelMigrations = 0;
};

/** The device's aging state and reliability decision logic. */
class ReliabilityModel
{
  public:
    ReliabilityModel(const NandConfig &nand,
                     const ReliabilityConfig &cfg, std::uint64_t seed,
                     StatSet *stats = nullptr);

    /**
     * Account one page read of @p block at @p now.
     * @return Extra die-busy ticks the ECC ladder charges.
     */
    Tick onRead(std::uint64_t block, Tick now);

    /**
     * A block erase at @p now: wear advances, retention restarts
     * (the fast-forwarded retention offset clears — the block now
     * holds freshly programmed data).
     */
    void noteErase(std::uint64_t block, Tick now);

    /** @name Bad-block management @{ */
    /** True when the block's correction history demands retirement. */
    bool
    retirePending(std::uint64_t block) const
    {
        return wear_[block].retirePending && !wear_[block].retired;
    }

    /** Permanently retire @p block (FTL calls this at its erase). */
    void markRetired(std::uint64_t block);

    bool retired(std::uint64_t block) const
    {
        return wear_[block].retired;
    }
    /** @} */

    /** @name Background scrub support @{ */
    /** RBER high enough that the block's data should be rewritten. */
    bool scrubDue(std::uint64_t block, Tick now) const;

    void notePass();
    void noteRefresh();
    void noteLevelMigration();
    /** @} */

    /** Current error rate of @p block. */
    double rberOf(std::uint64_t block, Tick now) const;

    /**
     * Expected ECC latency of a read at the device's current average
     * wear and retention — the aging term of the offloader's static
     * data-movement table (jitter-free, monotone in device age).
     *
     * Called once per dispatched instruction, so the transcendental
     * RBER math is cached: the value only moves with erases and
     * (slowly, on a days scale) with retention, so it is recomputed
     * when the erase count changes or simulated time crosses a
     * coarse bucket — deterministic, since both inputs are pure
     * simulated state.
     */
    Tick typicalReadPenalty(Tick now) const;

    /** @name Introspection @{ */
    std::uint32_t wearOf(std::uint64_t block) const
    {
        return wear_[block].eraseCount;
    }

    double retentionSecondsOf(std::uint64_t block, Tick now) const;

    std::uint64_t blocks() const { return wear_.size(); }

    const ReliabilityStats &stats() const { return stats_; }

    const EccEngine &ecc() const { return ecc_; }
    /** @} */

  private:
    struct BlockWear
    {
        std::uint32_t eraseCount = 0;
        std::uint32_t softReads = 0; // ladder-exhausting reads
        bool retirePending = false;
        bool retired = false;

        /** Tick the resident data was (re)programmed. */
        Tick programmedAt = 0;

        /** Fast-forwarded retention predating t = 0 (cleared by the
         *  first erase: the block then holds fresh data). */
        double retentionOffsetSeconds = 0.0;

        /**
         * Read-plan memo: the decode plan is constant between
         * erases within a coarse retention bucket, so the
         * transcendental RBER/ladder math runs once per
         * (erase, bucket) instead of once per read. kMaxTick marks
         * it stale (fresh block or just erased).
         */
        Tick planBucket = kMaxTick;
        ReadPlan plan;
    };

    // lint: transient-begin(config and the stateless models derived from it, rebuilt by the constructor on restore)
    ReliabilityConfig cfg_;
    RberModel rber_;
    EccEngine ecc_;
    // lint: transient-end
    std::vector<BlockWear> wear_;
    std::uint64_t totalErases_ = 0; // beyond pre-wear, all blocks

    /** typicalReadPenalty memo (see its doc comment). */
    static constexpr Tick kPenaltyBucketTicks = msToTicks(10);
    mutable Tick penaltyBucket_ = kMaxTick;
    mutable std::uint64_t penaltyErases_ = ~std::uint64_t{0};
    mutable Tick penalty_ = 0;

    ReliabilityStats stats_;

    /** StatSet mirrors (resolved once; see nand.hh's rationale). */
    // lint: transient-begin(cached StatSet pointers; the counters they mirror survive via StatSet::restoreFrom)
    Counter *statRetriedReads_ = nullptr;
    Counter *statEccRetries_ = nullptr;
    Counter *statSoftDecodes_ = nullptr;
    Counter *statUncorrectable_ = nullptr;
    Counter *statRetiredBlocks_ = nullptr;
    Counter *statScrubPasses_ = nullptr;
    Counter *statScrubRefreshes_ = nullptr;
    // lint: transient-end

  public:
    /**
     * Deep copy of the aging state for DeviceImage snapshots:
     * per-block wear (including the memoized read plans, which are
     * pure functions of wear + retention bucket), the device-total
     * erase count, and the cumulative ReliabilityStats. The
     * typicalReadPenalty memo is not captured — restore marks it
     * stale and the next query deterministically recomputes it from
     * the restored wear. RberModel/EccEngine are config+seed-derived
     * constants reproduced by construction.
     */
    struct Image
    {
        std::vector<BlockWear> wear;
        std::uint64_t totalErases = 0;
        ReliabilityStats stats;
    };

    Image
    capture() const
    {
        Image img;
        img.wear = wear_;
        img.totalErases = totalErases_;
        img.stats = stats_;
        return img;
    }

    void
    restore(const Image &img)
    {
        if (img.wear.size() != wear_.size())
            throw std::invalid_argument(
                "ReliabilityModel::restore: block count mismatch");
        wear_ = img.wear;
        totalErases_ = img.totalErases;
        stats_ = img.stats;
        penaltyBucket_ = kMaxTick;
        penaltyErases_ = ~std::uint64_t{0};
        penalty_ = 0;
    }
};

} // namespace conduit::reliability

#endif // CONDUIT_RELIABILITY_RELIABILITY_HH
