/**
 * @file
 * Unit tests for the parallel sweep-runner subsystem and the
 * event-queue determinism its reproducibility contract rests on.
 *
 * The headline property: a sweep executed on 1 thread and on N
 * threads produces identical RunResults per spec — verified both
 * field-by-field and on the byte level through the CSV emitter.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/runner/sweep_cli.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/rng.hh"
#include "src/trace/export.hh"

namespace conduit
{
namespace
{

using runner::HostKind;
using runner::ProgramCache;
using runner::RunMatrix;
using runner::RunSpec;
using runner::SweepOptions;
using runner::SweepResult;
using runner::SweepRunner;

/** A small but real matrix: 2 workloads x (host + 2 policies). */
RunMatrix
smallMatrix()
{
    RunMatrix m;
    m.workloads({WorkloadId::Aes, WorkloadId::Jacobi1d})
        .technique("CPU")
        .techniques({"ISP", "Conduit"});
    return m;
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.instrCount, b.instrCount);
    EXPECT_EQ(a.perResource, b.perResource);
    EXPECT_EQ(a.dmEnergyJ, b.dmEnergyJ);
    EXPECT_EQ(a.computeEnergyJ, b.computeEnergyJ);
    EXPECT_EQ(a.computeBusy, b.computeBusy);
    EXPECT_EQ(a.internalDmBusy, b.internalDmBusy);
    EXPECT_EQ(a.flashReadBusy, b.flashReadBusy);
    EXPECT_EQ(a.hostDmBusy, b.hostDmBusy);
    EXPECT_EQ(a.offloaderBusy, b.offloaderBusy);
    EXPECT_EQ(a.coherenceCommits, b.coherenceCommits);
    EXPECT_EQ(a.latchEvictions, b.latchEvictions);
    EXPECT_EQ(a.latencyUs.count(), b.latencyUs.count());
    if (a.latencyUs.count()) {
        EXPECT_EQ(a.latencyUs.percentile(50), b.latencyUs.percentile(50));
        EXPECT_EQ(a.latencyUs.percentile(99.99),
                  b.latencyUs.percentile(99.99));
    }
}

TEST(SweepRunner, OneThreadAndManyThreadsProduceIdenticalResults)
{
    SweepRunner serial(SweepOptions{1});
    SweepRunner parallel(SweepOptions{4});

    const SweepResult a = serial.run(smallMatrix().build());
    const SweepResult b = parallel.run(smallMatrix().build());

    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 0u);
    EXPECT_EQ(a.threads(), 1u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.spec(i).workload, b.spec(i).workload);
        EXPECT_EQ(a.spec(i).technique, b.spec(i).technique);
        expectSameResult(a.result(i), b.result(i));
    }
}

TEST(SweepRunner, CsvRowsAreByteIdenticalAcrossThreadCounts)
{
    SweepRunner serial(SweepOptions{1});
    SweepRunner parallel(SweepOptions{4});

    std::ostringstream csv1, csvN, json1, jsonN;
    runner::toTable(serial.run(smallMatrix().build())).writeCsv(csv1);
    runner::toTable(parallel.run(smallMatrix().build())).writeCsv(csvN);
    runner::toTable(serial.run(smallMatrix().build())).writeJson(json1);
    runner::toTable(parallel.run(smallMatrix().build())).writeJson(jsonN);

    EXPECT_EQ(csv1.str(), csvN.str());
    EXPECT_EQ(json1.str(), jsonN.str());
    EXPECT_NE(csv1.str().find("\"AES\",\"Conduit\""),
              std::string::npos);
}

TEST(SweepRunner, RepeatedSweepsAreDeterministic)
{
    SweepRunner runner(SweepOptions{0}); // hardware concurrency
    const SweepResult a = runner.run(smallMatrix().build());
    const SweepResult b = runner.run(smallMatrix().build());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSameResult(a.result(i), b.result(i));
}

TEST(SweepRunner, CellEqualsAOneJobDevice)
{
    // A cold-SSD cell is exactly one tick-0 job on a fresh Device
    // built from the cell's (config, engine, params).
    RunMatrix m;
    m.workload(WorkloadId::Aes).technique("Conduit");
    const std::vector<RunSpec> specs = m.build();
    const SweepResult sweep = SweepRunner().run(specs);

    const RunSpec &spec = specs.front();
    ProgramCache cache;
    const auto compiled =
        cache.get(WorkloadId::Aes, spec.params, spec.config);
    Device dev(makeDeviceOptions(spec.config, spec.engine, spec.params));
    JobSpec job;
    job.program = std::shared_ptr<const Program>(compiled,
                                                 &compiled->program);
    job.policyObj = makePolicy("Conduit");
    const RunResult device = dev.wait(dev.submit(job)).result;
    expectSameResult(device, sweep.at("AES", "Conduit"));
}

TEST(SweepRunner, HostKindRunsBaselineUnderCustomLabel)
{
    RunMatrix m;
    m.workload(WorkloadId::Aes)
        .technique("CPU")
        .hostTechnique("OSP", false);
    const SweepResult sweep = SweepRunner().run(m.build());
    // Would throw inside makePolicy("OSP") if the host flag were
    // ignored; instead it must match the CPU baseline's numbers.
    const RunResult &osp = sweep.at("AES", "OSP");
    const RunResult &cpu = sweep.at("AES", "CPU");
    EXPECT_EQ(osp.execTime, cpu.execTime);
    EXPECT_EQ(osp.energyJ(), cpu.energyJ());
}

TEST(SweepRunner, SpecWithoutProgramOrWorkloadThrows)
{
    RunSpec bad;
    bad.workload = "broken";
    bad.technique = "Conduit";
    SweepRunner runner;
    EXPECT_THROW(runner.run({bad}), std::invalid_argument);
}

/**
 * Co-location cells (two isolated runs, two pairs) that all fork one
 * shared aged warm image, like bench_multi_tenant --age.
 */
std::vector<runner::MultiRunSpec>
agedMultiCells(SweepRunner &runner)
{
    runner::LoadRunSpec warm;
    warm.workload = "AES";
    warm.workloadId = WorkloadId::Aes;
    warm.params.scale = 1.0 / 64.0;
    warm.config.reliability.enabled = true;
    warm.config.reliability.preWearCycles = 2000;
    warm.config.reliability.retentionDays = 60.0;
    warm.warmupJobs = 2;
    std::uint64_t maxFp = 0;
    for (WorkloadId id : {WorkloadId::Aes, WorkloadId::Jacobi1d})
        maxFp = std::max(
            maxFp, runner.cache()
                       .get(id, warm.params, warm.config)
                       ->program.footprintPages);
    warm.capacityPages = 2 * maxFp;
    const auto img = std::make_shared<const DeviceImage>(
        runner.buildWarmImage(warm));

    const auto slot = [](WorkloadId id) {
        runner::StreamSlot s;
        s.workloadId = id;
        s.technique = "Conduit";
        return s;
    };
    std::vector<runner::MultiRunSpec> cells;
    const std::vector<std::vector<WorkloadId>> tenancies = {
        {WorkloadId::Aes},
        {WorkloadId::Jacobi1d},
        {WorkloadId::Aes, WorkloadId::Jacobi1d},
        {WorkloadId::Jacobi1d, WorkloadId::Aes}};
    for (const auto &ids : tenancies) {
        runner::MultiRunSpec cell;
        cell.image = img;
        for (WorkloadId id : ids) {
            cell.label += (cell.label.empty() ? "" : "+") +
                workloadName(id);
            cell.streams.push_back(slot(id));
        }
        cells.push_back(std::move(cell));
    }
    return cells;
}

TEST(SweepRunner, ImageForkedMultiCellsRunOnThePoolTracedAndAttributed)
{
    trace::TraceConfig tcfg;
    tcfg.categories = trace::kAllCategories;
    SweepRunner serial(SweepOptions{1, tcfg});
    SweepRunner pooled(SweepOptions{4, tcfg});
    const auto cells = agedMultiCells(serial);

    const std::vector<DeviceSnapshot> one = serial.runMultiAll(cells);
    const std::vector<DeviceSnapshot> four = pooled.runMultiAll(cells);
    ASSERT_EQ(one.size(), cells.size());
    ASSERT_EQ(four.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const std::size_t carried = cells[c].image->jobs.size();
        ASSERT_EQ(one[c].jobs.size(), carried + cells[c].streams.size());
        ASSERT_EQ(four[c].jobs.size(), one[c].jobs.size());
        for (std::size_t j = 0; j < one[c].jobs.size(); ++j) {
            expectSameResult(one[c].jobs[j].result,
                             four[c].jobs[j].result);
            EXPECT_EQ(one[c].jobs[j].end, four[c].jobs[j].end);
        }
        // The image's jobs come first; the cell's jobs arrive
        // together at the fork's clock, labelled by their slots.
        const Tick forkClock = Device(*cells[c].image).now();
        EXPECT_GT(forkClock, 0u);
        for (std::size_t j = carried; j < one[c].jobs.size(); ++j) {
            EXPECT_EQ(one[c].jobs[j].arrival, forkClock);
            EXPECT_EQ(one[c].jobs[j].result.workload,
                      workloadName(*cells[c].streams[j - carried]
                                        .workloadId));
        }
        EXPECT_EQ(one[c].makespan, four[c].makespan);
        EXPECT_EQ(one[c].eventsFired, four[c].eventsFired);
    }

    for (SweepRunner *r : {&serial, &pooled}) {
        EXPECT_EQ(r->lastPerf().cells, cells.size());
        ASSERT_EQ(r->lastTraces().size(), cells.size());
        for (std::size_t c = 0; c < cells.size(); ++c) {
            EXPECT_EQ(r->lastTraces()[c].label, cells[c].label);
            ASSERT_NE(r->lastTraces()[c].tracer, nullptr);
            EXPECT_GT(r->lastTraces()[c].tracer->events().size(), 0u);
        }
    }
    EXPECT_EQ(trace::toJson(serial.lastTraces()),
              trace::toJson(pooled.lastTraces()));
}

TEST(RunMatrix, CrossProductIsWorkloadMajorAndFilterable)
{
    RunMatrix m;
    m.workloads({WorkloadId::Aes, WorkloadId::XorFilter})
        .techniques({"CPU", "Conduit"});
    const auto specs = m.build();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].workload, "AES");
    EXPECT_EQ(specs[0].technique, "CPU");
    EXPECT_EQ(specs[1].workload, "AES");
    EXPECT_EQ(specs[1].technique, "Conduit");
    EXPECT_EQ(specs[2].workload, "XOR Filter");

    m.filterWorkloads("AES");
    m.filterTechniques("Conduit");
    const auto filtered = m.build();
    ASSERT_EQ(filtered.size(), 1u);
    EXPECT_EQ(filtered[0].workload, "AES");
    EXPECT_EQ(filtered[0].technique, "Conduit");
}

TEST(ProgramCache, CompilesOnceAndSharesAcrossThreads)
{
    ProgramCache cache;
    const SsdConfig cfg = runner::defaultSweepConfig();
    const WorkloadParams params;

    std::vector<std::shared_ptr<const VectorizedProgram>> got(8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            got[t] = cache.get(WorkloadId::Jacobi1d, params, cfg);
        });
    for (auto &t : threads)
        t.join();

    for (std::size_t t = 1; t < got.size(); ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
    EXPECT_EQ(cache.size(), 1u);

    WorkloadParams bigger;
    bigger.scale = 2.0;
    EXPECT_NE(cache.get(WorkloadId::Jacobi1d, bigger, cfg).get(),
              got[0].get());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SweepResult, LookupAndLabels)
{
    const SweepResult sweep =
        SweepRunner(SweepOptions{2}).run(smallMatrix().build());
    EXPECT_EQ(sweep.workloadLabels(),
              (std::vector<std::string>{"AES", "jacobi-1d"}));
    EXPECT_EQ(sweep.techniqueLabels(),
              (std::vector<std::string>{"CPU", "ISP", "Conduit"}));
    EXPECT_NE(sweep.find("AES", "ISP"), nullptr);
    EXPECT_EQ(sweep.find("AES", "nope"), nullptr);
    EXPECT_THROW(sweep.at("AES", "nope"), std::out_of_range);
    EXPECT_GT(sweep.at("AES", "CPU").execTime, 0u);
}

/** CSV header names and JSON object keys of @p table's first row. */
std::pair<std::vector<std::string>, std::vector<std::string>>
headerAndKeys(const runner::RowTable &table)
{
    std::ostringstream csv, json;
    table.writeCsv(csv);
    table.writeJson(json);
    std::vector<std::string> header =
        runner::splitCsv(csv.str().substr(0, csv.str().find('\n')));
    std::vector<std::string> keys;
    const std::string obj = json.str().substr(0, json.str().find('}'));
    // Keys are the only quoted strings followed by ": ".
    for (std::size_t at = obj.find("\": "); at != std::string::npos;
         at = obj.find("\": ", at + 1)) {
        const std::size_t open = obj.rfind('"', at - 1);
        keys.push_back(obj.substr(open + 1, at - open - 1));
    }
    return {header, keys};
}

TEST(RowTable, JsonKeysEqualCsvHeaderForEveryRowShape)
{
    const SweepResult sweep(
        {RunSpec{"AES", "Conduit"}}, {RunResult{}}, 0.0, 1);
    runner::AgingRow aging;
    aging.load.workload = "AES";
    const std::vector<runner::RowTable> tables = {
        runner::toTable(sweep),
        runner::toTable(std::vector<runner::LoadRow>{aging.load}),
        runner::toTable(std::vector<runner::AgingRow>{aging}),
        runner::toTable(
            std::vector<runner::ClusterRow>{runner::ClusterRow{}}),
    };
    for (const runner::RowTable &table : tables) {
        const auto [header, keys] = headerAndKeys(table);
        EXPECT_GT(header.size(), 2u);
        EXPECT_EQ(header, keys);
    }
}

// ----------------------------------------------------------------
// EventQueue determinism: the (tick, priority, sequence) ordering
// and cancel semantics the runner's reproducibility claim rests on.
// ----------------------------------------------------------------

TEST(EventQueueDeterminism, SequenceBreaksTiesInSchedulingOrder)
{
    EventQueue q;
    std::vector<int> order;
    // Same tick, same priority: must fire in scheduling order even
    // when scheduled interleaved with other ticks.
    q.schedule(50, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(0); });
    q.schedule(50, [&] { order.push_back(2); });
    q.schedule(50, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueDeterminism, PriorityDominatesSequenceWithinTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, 1);
    q.schedule(5, [&] { order.push_back(0); }, -1);
    q.schedule(5, [&] { order.push_back(3); }, 1);
    q.schedule(5, [&] { order.push_back(1); }, 0);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueDeterminism, StressOrderingIsReproducible)
{
    // Two queues fed the same pseudo-random schedule must fire the
    // same sequence, including same-tick/priority ties.
    const auto drive = [](EventQueue &q, std::vector<int> &fired) {
        Rng rng(2026);
        for (int i = 0; i < 500; ++i) {
            const Tick when = rng.below(64);
            const int prio = static_cast<int>(rng.below(3));
            q.schedule(when, [&fired, i] { fired.push_back(i); },
                       prio);
        }
        q.run();
    };
    EventQueue q1, q2;
    std::vector<int> f1, f2;
    drive(q1, f1);
    drive(q2, f2);
    EXPECT_EQ(f1.size(), 500u);
    EXPECT_EQ(f1, f2);
}

TEST(EventQueueDeterminism, CancelSemantics)
{
    EventQueue q;
    std::vector<int> order;
    const EventId a = q.schedule(10, [&] { order.push_back(1); });
    const EventId b = q.schedule(10, [&] { order.push_back(2); });
    EventId c = 0;
    c = q.schedule(20, [&] { order.push_back(3); });

    // Cancelling a pending event succeeds once; the slot never fires
    // and does not perturb the ordering of its same-tick peers.
    EXPECT_TRUE(q.cancel(a));
    EXPECT_FALSE(q.cancel(a));
    // Cancelling from inside a callback cancels not-yet-fired events.
    q.schedule(15, [&] { EXPECT_TRUE(q.cancel(c)); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2}));
    EXPECT_TRUE(q.empty());
    // After firing, an id is no longer cancellable.
    EXPECT_FALSE(q.cancel(b));
}

TEST(EventQueueDeterminism, PendingAccountsForCancellations)
{
    EventQueue q;
    const EventId a = q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.eventsFired(), 1u);
}

/** SweepCli::parse over @p args (argv[0] supplied). */
runner::SweepCli
parseCli(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return runner::SweepCli::parse(static_cast<int>(argv.size()),
                                   argv.data());
}

TEST(SweepCliDeathTest, ScaleMustBeFiniteAndPositive)
{
    // Dataset sizes are base * scale cast to integers; anything but a
    // finite positive multiplier is a usage error, not a run.
    for (const char *bad : {"-1", "0", "-0", "nan", "inf", "-inf"}) {
        EXPECT_EXIT(parseCli({"--scale", bad}),
                    ::testing::ExitedWithCode(2),
                    "invalid value for --scale")
            << bad;
    }
    EXPECT_DOUBLE_EQ(parseCli({"--scale", "0.25"}).scale, 0.25);
    EXPECT_DOUBLE_EQ(parseCli({}).scale, 1.0);
}

TEST(SweepCliDeathTest, CyclesMustFitTheWearCounters)
{
    // Device ages are uint32_t P/E-cycle counts: a value past the
    // counter's range is a usage error, never a silent wrap (e.g.
    // 4294967297 running as 1 cycle).
    for (const char *flag : {"--age", "--age-mix", "--ages"}) {
        for (const char *bad : {"4294967296", "4294967297",
                                "4294969296", "18446744073709551616",
                                "-1", "", "12x"}) {
            EXPECT_EXIT(runner::SweepCli::parseCycles(flag, bad),
                        ::testing::ExitedWithCode(2),
                        std::string("invalid value for ") + flag)
                << flag << " " << bad;
        }
    }
    EXPECT_EQ(runner::SweepCli::parseCycles("--age", "0"), 0u);
    EXPECT_EQ(runner::SweepCli::parseCycles("--age", "2000"), 2000u);
    EXPECT_EQ(runner::SweepCli::parseCycles("--age", "4294967295"),
              4294967295u);
}

} // namespace
} // namespace conduit
