/**
 * @file
 * Reproduces Fig. 10: the instruction-to-resource mapping over the
 * execution of LlaMA2 Inference under BW-Offloading, DM-Offloading
 * and Conduit, alongside the operation stream, run as one parallel
 * sweep with occupancy tracing enabled.
 *
 * Rendered as a run-length-encoded strip per policy plus windowed
 * resource shares, exposing the paper's phases: BW-Offloading
 * thrashes between resources; DM-Offloading pins the arithmetic
 * phases to flash; Conduit executes locality-friendly additions in
 * flash, multiplications in DRAM, and control on the core.
 *
 * The strips are a consumer of the tracer's per-instruction
 * occupancy spans (src/trace): the bench forces the occupancy
 * category on for its own cells, then reconstructs each policy's
 * dispatch-ordered instruction timeline from the recorded events.
 */

#include "bench/common.hh"
#include "src/trace/trace.hh"

namespace
{

using namespace conduit;

char
resourceChar(std::uint8_t t)
{
    switch (static_cast<Target>(t)) {
      case Target::Isp: return 'C'; // controller core
      case Target::Pud: return 'D'; // DRAM
      case Target::Ifp: return 'F'; // flash
    }
    return '?';
}

/** The sweep cell's tracer, located by its attribution label. */
const trace::Tracer *
cellTracer(const std::vector<trace::TraceCell> &cells,
           const std::string &label)
{
    for (const trace::TraceCell &c : cells)
        if (c.label == label)
            return c.tracer.get();
    return nullptr;
}

void
printStrip(const trace::InstructionTimeline &tl, std::size_t buckets)
{
    // Majority resource per bucket of the instruction stream.
    const std::size_t n = tl.resource.size();
    std::printf("  ");
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t lo = b * n / buckets;
        const std::size_t hi = (b + 1) * n / buckets;
        int count[3] = {0, 0, 0};
        for (std::size_t i = lo; i < hi && i < n; ++i)
            ++count[tl.resource[i] % 3];
        int best = 0;
        for (int t = 1; t < 3; ++t)
            if (count[t] > count[best])
                best = t;
        std::printf("%c", resourceChar(static_cast<std::uint8_t>(best)));
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    const SweepCli cli = SweepCli::parse(argc, argv);
    RunMatrix matrix;
    matrix.workload(WorkloadId::LlamaInference)
        .techniques({"BW-Offloading", "DM-Offloading", "Conduit"});
    cli.configure(matrix);

    // The strips consume occupancy spans, so that category is always
    // on here — --trace/--trace-filter only widen what gets exported.
    runner::SweepOptions opts = cli.runnerOptions();
    opts.trace.categories |=
        static_cast<std::uint32_t>(trace::Category::Occupancy);
    SweepRunner runner(opts);
    const SweepResult sweep = runner.run(matrix.build());

    std::printf("Fig. 10: instruction-to-resource mapping, LlaMA2 "
                "Inference\n");
    std::printf("legend: C = controller core (ISP), D = SSD DRAM "
                "(PuD), F = flash (IFP)\n\n");

    const std::string llama = workloadName(WorkloadId::LlamaInference);
    const std::size_t buckets = 96;

    // Operation stream (one strip: dominant op class per bucket).
    if (const trace::Tracer *t =
            cellTracer(runner.lastTraces(), llama + "/Conduit")) {
        const trace::InstructionTimeline tl =
            trace::instructionTimeline(*t);
        const std::size_t n = tl.op.size();
        std::printf("operations (a=add/sub, m=mul/mac, o=other), %zu "
                    "instructions:\n  ",
                    n);
        for (std::size_t b = 0; b < buckets; ++b) {
            const std::size_t lo = b * n / buckets;
            const std::size_t hi = (b + 1) * n / buckets;
            int add = 0, mul = 0, other = 0;
            for (std::size_t i = lo; i < hi && i < n; ++i) {
                const auto op = static_cast<OpCode>(tl.op[i]);
                if (op == OpCode::Add || op == OpCode::Sub)
                    ++add;
                else if (op == OpCode::Mul || op == OpCode::Mac)
                    ++mul;
                else
                    ++other;
            }
            std::printf("%c", add >= mul && add >= other ? 'a'
                              : mul >= other             ? 'm'
                                                         : 'o');
        }
        std::printf("\n\n");
    }

    for (const auto &p : sweep.techniqueLabels()) {
        const trace::Tracer *t =
            cellTracer(runner.lastTraces(), llama + "/" + p);
        const trace::InstructionTimeline tl = t
            ? trace::instructionTimeline(*t)
            : trace::InstructionTimeline{};
        std::printf("%s:\n", p.c_str());
        printStrip(tl, buckets);
        // Switch count: how often consecutive instructions change
        // resource (BW-Offloading's thrash signature).
        std::size_t switches = 0;
        for (std::size_t i = 1; i < tl.resource.size(); ++i)
            switches += tl.resource[i] != tl.resource[i - 1];
        std::printf("  resource switches: %zu of %zu instructions\n\n",
                    switches, tl.resource.size());
    }

    return cli.finish(runner::toTable(sweep), runner);
}
