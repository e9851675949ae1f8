/**
 * @file
 * Reproduces Fig. 7(b): energy consumption normalized to CPU, with
 * the data-movement vs computation breakdown per technique, run as
 * one parallel sweep matrix.
 *
 * Paper shape: Conduit reduces energy by 78.2% vs CPU, 58.2% vs GPU,
 * 46.8% vs DM-Offloading (the most energy-efficient prior policy),
 * and reaches ~68% of Ideal's efficiency.
 */

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace conduit;
    using namespace conduit::bench;

    const SweepCli cli = SweepCli::parse(argc, argv);
    RunMatrix matrix = workloadTechniqueMatrix(evaluationTechniques());
    cli.configure(matrix, "CPU");

    SweepRunner runner(cli.runnerOptions());
    const SweepResult sweep = runner.run(matrix.build());

    std::printf("Fig. 7(b): energy normalized to CPU "
                "(dm = data movement share)\n\n");
    const std::vector<std::string> columns = nonBaselineColumns(sweep);
    printHeader(columns);

    std::map<std::string, std::vector<double>> ratio;
    for (const auto &w : sweep.workloadLabels()) {
        const double cpu = sweep.at(w, "CPU").energyJ();
        std::printf("%-18s", w.c_str());
        for (const auto &t : columns) {
            const auto &r = sweep.at(w, t);
            const double norm = r.energyJ() / cpu;
            const double dm_share =
                r.energyJ() > 0 ? r.dmEnergyJ / r.energyJ() : 0.0;
            ratio[t].push_back(norm);
            std::printf(" %6.3f(dm%3.0f%%)", norm, 100.0 * dm_share);
        }
        std::printf("\n");
    }
    std::printf("%-18s", "GMEAN");
    for (const auto &t : columns)
        std::printf(" %14.3f", gmean(ratio[t]));
    std::printf("\n\n");

    if (ratio.count("Conduit")) {
        const double conduit = gmean(ratio["Conduit"]);
        std::printf("key observations (paper values in brackets):\n");
        std::printf(
            "  Conduit energy saving vs CPU:   %5.1f%%  [78.2%%]\n",
            100.0 * (1.0 - conduit));
        const struct
        {
            const char *name;
            const char *row;
            const char *paper;
        } baselines[] = {
            {"GPU", "Conduit energy saving vs GPU:  ", "58.2"},
            {"ISP", "Conduit energy saving vs ISP:  ", "67.3"},
            {"PuD-SSD", "Conduit energy saving vs PuD:  ", "60.6"},
            {"Flash-Cosmos", "Conduit saving vs Flash-Cosmos:", "68.0"},
            {"Ares-Flash", "Conduit saving vs Ares-Flash:  ", "57.4"},
            {"BW-Offloading", "Conduit saving vs BW-Offload:  ", "47.8"},
            {"DM-Offloading", "Conduit saving vs DM-Offload:  ", "46.8"},
        };
        for (const auto &b : baselines) {
            if (!ratio.count(b.name))
                continue;
            std::printf("  %s %5.1f%%  [%s%%]\n", b.row,
                        100.0 * (1.0 - conduit / gmean(ratio[b.name])),
                        b.paper);
        }
        if (ratio.count("Ideal"))
            std::printf(
                "  Ideal efficiency reached:       %5.0f%%  [68%%]\n",
                100.0 * gmean(ratio["Ideal"]) / conduit);
    }

    return cli.finish(runner::toTable(sweep), runner);
}
