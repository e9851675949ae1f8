/**
 * @file
 * Test-side helpers: a job spec for a program under a named policy,
 * and one program under one policy object as the only job of a
 * Device — the cold-SSD cell every engine-level test runs.
 */

#ifndef CONDUIT_TESTS_SOLO_RUN_HH
#define CONDUIT_TESTS_SOLO_RUN_HH

#include <memory>
#include <string>

#include "src/core/device.hh"

namespace conduit::test
{

/** A job running @p prog under a fresh @p policy, arriving at @p at. */
inline JobSpec
jobOf(std::shared_ptr<const Program> prog, Tick at = 0,
      const std::string &policy = "Conduit")
{
    JobSpec job;
    job.program = std::move(prog);
    job.policyObj = makePolicy(policy);
    job.arrival = at;
    return job;
}

/**
 * Submit @p prog under @p policy to @p dev as one tick-0 job and
 * drain. Both are borrowed for the call (non-owning aliases), so a
 * stateful policy object can be inspected afterwards. The result
 * carries the device's fired-event count.
 */
inline RunResult
runSolo(Device &dev, const Program &prog, OffloadPolicy &policy)
{
    JobSpec job;
    job.program = std::shared_ptr<const Program>(
        std::shared_ptr<const void>(), &prog);
    job.policyObj = std::shared_ptr<OffloadPolicy>(
        std::shared_ptr<void>(), &policy);
    dev.submit(job);
    DeviceSnapshot snap = dev.drain();
    RunResult r = std::move(snap.jobs.back().result);
    r.eventsFired = snap.eventsFired;
    return r;
}

/** runSolo on a fresh device built from @p cfg and @p opts. */
inline RunResult
runSolo(const SsdConfig &cfg, const Program &prog, OffloadPolicy &policy,
        const EngineOptions &opts = {})
{
    Device dev(makeDeviceOptions(cfg, opts, {}));
    return runSolo(dev, prog, policy);
}

} // namespace conduit::test

#endif // CONDUIT_TESTS_SOLO_RUN_HH
