/**
 * @file
 * SSD-internal DRAM model (Fig. 2).
 *
 * Models the LPDDR4 subsystem that stores FTL metadata and caches
 * pages: independent banks behind a shared data bus. Banks are FCFS
 * Servers with row activate/precharge timing; the bus serializes
 * data transfers at the configured effective bandwidth. Accuracy is
 * at the level the offloading study needs — bank-level parallelism,
 * row-granularity operations, and bus contention — following the
 * Ramulator-2.0-based extension described in §5.1.
 */

#ifndef CONDUIT_DRAM_DRAM_HH
#define CONDUIT_DRAM_DRAM_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/sim/config.hh"
#include "src/sim/server.hh"
#include "src/sim/stats.hh"

namespace conduit
{

/**
 * Bank-parallel DRAM timing model.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &cfg, StatSet *stats = nullptr);

    const DramConfig &config() const { return cfg_; }

    /**
     * Transfer @p bytes over the DRAM bus (e.g. staging a page into
     * or out of the compute region). Includes one row activation on
     * the selected bank plus serialized bus time.
     *
     * @param bank Bank index (row address hash).
     * @param bytes Payload size.
     * @param earliest Earliest start.
     */
    ServiceInterval access(std::uint32_t bank, std::uint64_t bytes,
                           Tick earliest);

    /** Occupy a bank for an in-bank (PuD) operation sequence. */
    ServiceInterval
    occupyBank(std::uint32_t bank, Tick earliest, Tick duration)
    {
        return banks_.acquireOn(bank % banks_.size(), earliest,
                                duration);
    }

    /** Least backlog over banks at @p now. */
    Tick bankBacklog(Tick now) const { return banks_.backlog(now); }

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    void reset();

    /**
     * Mutable calendar state for DeviceImage snapshots: every bank
     * Server plus the shared bus. Stored as plain Servers (not a
     * ServerGroup) so the image stays default-constructible; restore
     * re-seats them into the existing group unit by unit.
     */
    struct Image
    {
        std::vector<Server> banks;
        Server bus;
    };

    Image
    capture() const
    {
        Image img;
        img.banks.reserve(banks_.size());
        for (std::size_t i = 0; i < banks_.size(); ++i)
            img.banks.push_back(banks_.unit(i));
        img.bus = bus_;
        return img;
    }

    void
    restore(const Image &img)
    {
        if (img.banks.size() != banks_.size())
            throw std::invalid_argument(
                "DramModel::restore: bank count mismatch");
        for (std::size_t i = 0; i < banks_.size(); ++i)
            banks_.unit(i) = img.banks[i];
        bus_ = img.bus;
    }

  private:
    // lint: transient(immutable config, rebuilt by the constructor on restore)
    DramConfig cfg_;
    ServerGroup banks_;
    Server bus_;
    // lint: transient(wiring into the owning Engine's StatSet, re-bound on restore)
    StatSet *stats_;

    // Hot-path counters resolved once: a StatSet lookup per access
    // costs a string construction plus a map walk.
    // lint: transient-begin(cached StatSet pointers; the counters survive via StatSet::restoreFrom)
    Counter *statAccesses_ = nullptr;
    Counter *statBytes_ = nullptr;
    // lint: transient-end
};

} // namespace conduit

#endif // CONDUIT_DRAM_DRAM_HH
