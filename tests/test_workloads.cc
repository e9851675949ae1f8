/**
 * @file
 * Tests for the workload generators: every kernel compiles through
 * the vectorizer, and its characterization approximates Table 3.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/vectorizer/vectorizer.hh"
#include "src/workloads/workloads.hh"

namespace conduit
{
namespace
{

VectorizedProgram
compileWorkload(WorkloadId id, double scale = 0.5)
{
    WorkloadParams p;
    p.scale = scale;
    VectorizeOptions vo;
    vo.vectorLanes = 16384;
    return Vectorizer(vo).run(buildWorkload(id, p));
}

TEST(Workloads, AllSixBuildAndVectorize)
{
    for (WorkloadId id : allWorkloads()) {
        auto vp = compileWorkload(id);
        EXPECT_GT(vp.program.instrs.size(), 50u) << workloadName(id);
        EXPECT_GT(vp.program.footprintPages, 0u) << workloadName(id);
        EXPECT_GT(vp.report.vectorizableFraction, 0.0)
            << workloadName(id);
    }
}

TEST(Workloads, NamesMatchPaper)
{
    EXPECT_EQ(workloadName(WorkloadId::Aes), "AES");
    EXPECT_EQ(workloadName(WorkloadId::XorFilter), "XOR Filter");
    EXPECT_EQ(workloadName(WorkloadId::Heat3d), "heat-3d");
    EXPECT_EQ(workloadName(WorkloadId::Jacobi1d), "jacobi-1d");
    EXPECT_EQ(workloadName(WorkloadId::LlamaInference),
              "LlaMA2 Inference");
    EXPECT_EQ(workloadName(WorkloadId::LlmTraining), "LLM Training");
}

TEST(Workloads, AesIsBitwiseDominatedAndHighReuse)
{
    auto vp = compileWorkload(WorkloadId::Aes);
    // Table 3: 65% vectorizable code, 87% low-latency ops, reuse 15.2.
    EXPECT_NEAR(vp.report.vectorizableFraction, 0.65, 0.12);
    EXPECT_GT(vp.report.lowFraction, 0.75);
    EXPECT_LT(vp.report.highFraction, 0.05);
    EXPECT_GT(vp.report.avgReuse, 10.0);
}

TEST(Workloads, XorFilterIsMostlyScalarMediumOps)
{
    auto vp = compileWorkload(WorkloadId::XorFilter);
    // Table 3: 16% vectorizable, 98% medium ops.
    EXPECT_LT(vp.report.vectorizableFraction, 0.35);
    EXPECT_GT(vp.report.medFraction, 0.90);
    EXPECT_LT(vp.report.avgReuse, 6.0);
}

TEST(Workloads, StencilsAreHighlyVectorizable)
{
    auto heat = compileWorkload(WorkloadId::Heat3d);
    EXPECT_GT(heat.report.vectorizableFraction, 0.85);
    EXPECT_NEAR(heat.report.medFraction, 0.60, 0.12);
    EXPECT_NEAR(heat.report.highFraction, 0.40, 0.12);

    auto jac = compileWorkload(WorkloadId::Jacobi1d);
    EXPECT_GT(jac.report.vectorizableFraction, 0.70);
    EXPECT_NEAR(jac.report.medFraction, 0.67, 0.12);
    EXPECT_NEAR(jac.report.highFraction, 0.33, 0.12);
    EXPECT_LT(jac.report.avgReuse, heat.report.avgReuse);
}

TEST(Workloads, LlmKernelsMixMediumAndHighOps)
{
    auto inf = compileWorkload(WorkloadId::LlamaInference, 0.25);
    EXPECT_NEAR(inf.report.medFraction, 0.53, 0.15);
    EXPECT_NEAR(inf.report.highFraction, 0.47, 0.15);
    EXPECT_GT(inf.report.vectorizableFraction, 0.60);

    auto tr = compileWorkload(WorkloadId::LlmTraining, 0.25);
    EXPECT_GT(tr.report.medFraction, 0.75);
    EXPECT_LT(tr.report.highFraction, 0.25);
}

TEST(Workloads, ScaleGrowsFootprintAndWork)
{
    auto small = compileWorkload(WorkloadId::Aes, 0.25);
    auto big = compileWorkload(WorkloadId::Aes, 1.0);
    EXPECT_GT(big.program.footprintPages,
              small.program.footprintPages);
    EXPECT_GT(big.program.instrs.size(), small.program.instrs.size());
}

TEST(CaseStudies, ThreeClassesBuild)
{
    for (CaseStudyClass c :
         {CaseStudyClass::IoIntensive, CaseStudyClass::ComputeIntensive,
          CaseStudyClass::Mixed}) {
        WorkloadParams p;
        p.scale = 0.25;
        LoopProgram lp = buildCaseStudy(c, p);
        VectorizeOptions vo;
        vo.vectorLanes = 16384;
        auto vp = Vectorizer(vo).run(lp);
        EXPECT_GT(vp.program.instrs.size(), 10u) << caseStudyName(c);
    }
}

TEST(CaseStudies, IoIntensiveIsBitwiseSinglePass)
{
    WorkloadParams p;
    p.scale = 0.25;
    VectorizeOptions vo;
    vo.vectorLanes = 16384;
    auto vp = Vectorizer(vo).run(
        buildCaseStudy(CaseStudyClass::IoIntensive, p));
    EXPECT_GT(vp.report.lowFraction, 0.9);
    EXPECT_LT(vp.report.avgReuse, 3.0);
}

TEST(CaseStudies, ComputeIntensiveHasHighLatencyOps)
{
    WorkloadParams p;
    p.scale = 0.25;
    VectorizeOptions vo;
    vo.vectorLanes = 16384;
    auto vp = Vectorizer(vo).run(
        buildCaseStudy(CaseStudyClass::ComputeIntensive, p));
    EXPECT_GT(vp.report.highFraction, 0.15);
    EXPECT_GT(vp.report.avgReuse, 3.0);
}

/** Determinism across builds (parameterized over workloads). */
class WorkloadDeterminism
    : public ::testing::TestWithParam<WorkloadId>
{
};

TEST_P(WorkloadDeterminism, SameScaleSameProgram)
{
    auto a = compileWorkload(GetParam(), 0.3);
    auto b = compileWorkload(GetParam(), 0.3);
    ASSERT_EQ(a.program.instrs.size(), b.program.instrs.size());
    EXPECT_EQ(a.program.footprintPages, b.program.footprintPages);
    EXPECT_DOUBLE_EQ(a.report.avgReuse, b.report.avgReuse);
}

TEST(Workloads, NonPositiveOrNonFiniteScaleRejected)
{
    // Guarded at the source: the dataset-size cast would otherwise be
    // undefined behaviour (and a negative scale an unbounded build).
    for (double bad : {-1.0, 0.0, std::nan(""),
                       std::numeric_limits<double>::infinity()}) {
        WorkloadParams p;
        p.scale = bad;
        for (WorkloadId id : allWorkloads())
            EXPECT_THROW(buildWorkload(id, p), std::invalid_argument)
                << workloadName(id) << " at scale " << bad;
    }
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadDeterminism,
                         ::testing::ValuesIn(allWorkloads()));

} // namespace
} // namespace conduit
