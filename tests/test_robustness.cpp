#include <algorithm>

#include <gtest/gtest.h>

#include "schedule/robustness.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

TEST(Robustness, MarginsReflectBoundaryDistance) {
    std::vector<IntervalSet> ranges(2);
    ranges[0].add(10.0, 30.0);
    ranges[1].add(25.0, 45.0);
    const std::vector<Time> periods{20.0, 27.0};
    const RobustnessReport r = selection_margins(ranges, periods);
    EXPECT_EQ(r.covered, 2u);
    ASSERT_EQ(r.margins.size(), 2u);
    // Fault 0: best period 20 -> min(10, 10) = 10.
    EXPECT_NEAR(r.margins[0], 10.0, 1e-9);
    // Fault 1: 27 -> min(2, 18) = 2.
    EXPECT_NEAR(r.margins[1], 2.0, 1e-9);
    EXPECT_NEAR(r.min_margin, 2.0, 1e-9);
}

TEST(Robustness, IdenticalScaleKeepsFullCoverage) {
    Prng rng(5);
    std::vector<IntervalSet> ranges(50);
    std::vector<Time> periods;
    for (auto& r : ranges) {
        const Time lo = rng.uniform(100.0, 500.0);
        r.add(lo, lo + rng.uniform(5.0, 40.0));
        periods.push_back(r[0].midpoint());
    }
    EXPECT_DOUBLE_EQ(coverage_under_scaling(ranges, periods, 1.0), 1.0);
}

TEST(Robustness, LargeShiftLosesCoverageGradually) {
    Prng rng(6);
    std::vector<IntervalSet> ranges(100);
    for (auto& r : ranges) {
        const Time lo = rng.uniform(100.0, 500.0);
        r.add(lo, lo + rng.uniform(5.0, 25.0));
    }
    std::vector<Time> periods;
    for (const auto& r : ranges) periods.push_back(r[0].midpoint());
    const std::vector<double> scales{1.0, 1.01, 1.05, 1.2};
    const std::vector<double> retained =
        robustness_sweep(ranges, periods, scales);
    ASSERT_EQ(retained.size(), 4u);
    EXPECT_DOUBLE_EQ(retained[0], 1.0);
    // Monotone loss with growing shift.
    EXPECT_GE(retained[0], retained[1]);
    EXPECT_GE(retained[1], retained[2]);
    EXPECT_GE(retained[2], retained[3]);
    EXPECT_LT(retained[3], 0.9);  // 20 % shift must hurt narrow ranges
}

TEST(Robustness, MidpointsBeatBoundaryPoints) {
    // The paper's rationale for midpoints (Sec. IV-A): piercing at the
    // boundary loses coverage under tiny shifts; midpoints survive.
    Prng rng(7);
    std::vector<IntervalSet> ranges(80);
    std::vector<Time> midpoints;
    std::vector<Time> boundaries;
    for (auto& r : ranges) {
        const Time lo = rng.uniform(100.0, 500.0);
        r.add(lo, lo + rng.uniform(5.0, 30.0));
        midpoints.push_back(r[0].midpoint());
        boundaries.push_back(r[0].hi - 1e-6);
    }
    // Symmetric uncertainty: the device may be slower or faster than
    // simulated.  Midpoints maximize the worst case; a boundary point
    // loses everything for one of the two directions.
    const double mid = std::min(coverage_under_scaling(ranges, midpoints, 1.02),
                                coverage_under_scaling(ranges, midpoints, 0.98));
    const double bnd =
        std::min(coverage_under_scaling(ranges, boundaries, 1.02),
                 coverage_under_scaling(ranges, boundaries, 0.98));
    EXPECT_GT(mid, bnd);
}

}  // namespace
}  // namespace fastmon
