/**
 * @file
 * Reproduces Fig. 5: speedup of GPU, ISP, PuD-SSD, Flash-Cosmos,
 * Ares-Flash, BW-Offloading, DM-Offloading and Ideal over the host
 * CPU, per workload plus the geometric mean, run as one parallel
 * sweep matrix.
 *
 * Paper shape: DM-Offloading is the best prior technique (~2.3x CPU
 * average), BW-Offloading trails it, the Ideal policy leads all
 * realizable techniques by ~2.5x over DM-Offloading, and the GPU
 * wins on the highly data-parallel stencils.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    const SweepCli cli = SweepCli::parse(argc, argv);
    RunMatrix matrix = workloadTechniqueMatrix(motivationTechniques());
    cli.configure(matrix, "CPU");

    SweepRunner runner(cli.runnerOptions());
    const SweepResult sweep = runner.run(matrix.build());

    std::printf("Fig. 5: speedup over CPU (motivation, prior "
                "techniques only)\n\n");
    const std::vector<std::string> columns = nonBaselineColumns(sweep);
    printHeader(columns);

    std::map<std::string, std::vector<double>> speedups;
    for (const auto &w : sweep.workloadLabels()) {
        const double cpu =
            static_cast<double>(sweep.at(w, "CPU").execTime);
        std::printf("%-18s", w.c_str());
        for (const auto &t : columns) {
            const double s =
                cpu / static_cast<double>(sweep.at(w, t).execTime);
            speedups[t].push_back(s);
            std::printf(" %13.2fx", s);
        }
        std::printf("\n");
    }
    std::printf("%-18s", "GMEAN");
    for (const auto &t : columns)
        std::printf(" %13.2fx", gmean(speedups[t]));
    std::printf("\n\n");

    if (speedups.count("DM-Offloading") &&
        speedups.count("BW-Offloading") && speedups.count("Ideal")) {
        const double dm = gmean(speedups["DM-Offloading"]);
        const double bw = gmean(speedups["BW-Offloading"]);
        const double ideal = gmean(speedups["Ideal"]);
        std::printf("key observations (paper values in brackets):\n");
        std::printf("  best prior technique: %s\n",
                    dm >= bw ? "DM-Offloading [DM-Offloading]"
                             : "BW-Offloading [DM-Offloading]");
        std::printf("  DM-Offloading vs CPU:      %5.2fx  [2.3x]\n",
                    dm);
        std::printf("  BW-Offloading vs CPU:      %5.2fx  [2.1x]\n",
                    bw);
        std::printf("  Ideal gap over DM:         %5.2fx  [2.5x]\n",
                    ideal / dm);
    }

    return cli.finish(runner::toTable(sweep), runner);
}
