#include <gtest/gtest.h>

#include "schedule/validate.hpp"

namespace fastmon {
namespace {

TEST(Validate, AcceptsCoveringSchedule) {
    TestSchedule s;
    s.periods = {100.0, 200.0};
    s.entries = {{0, 3, 1}, {1, 5, 0}};
    const std::vector<DetectionEntry> entries{
        {0, 3, 1, 0},  // fault 0 by the first application
        {1, 5, 0, 1},  // fault 1 by the second
        {2, 3, 1, 0},  // fault 2 also by the first
    };
    const std::vector<std::uint32_t> targets{0, 1, 2};
    const ScheduleValidation v = validate_schedule(s, entries, targets);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.covered, 3u);
}

TEST(Validate, FlagsMissingFault) {
    TestSchedule s;
    s.periods = {100.0};
    s.entries = {{0, 3, 1}};
    const std::vector<DetectionEntry> entries{
        {0, 3, 1, 0},
        {1, 4, 1, 0},  // fault 1 needs pattern 4, which is not scheduled
    };
    const std::vector<std::uint32_t> targets{0, 1};
    const ScheduleValidation v = validate_schedule(s, entries, targets);
    EXPECT_FALSE(v.valid);
    ASSERT_EQ(v.uncovered_faults.size(), 1u);
    EXPECT_EQ(v.uncovered_faults[0], 1u);
}

}  // namespace
}  // namespace fastmon
