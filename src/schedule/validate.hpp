// Schedule validation.
//
// A schedule is only as good as its coverage proof: validate_schedule
// re-checks, against the pass-B detection table, that every target
// fault is detected by at least one selected (frequency, pattern,
// configuration) application.
#pragma once

#include <span>

#include "fault/detection_range.hpp"
#include "schedule/schedule.hpp"

namespace fastmon {

struct ScheduleValidation {
    bool valid = false;
    std::size_t covered = 0;
    std::vector<std::uint32_t> uncovered_faults;
};

/// Checks that every fault in `target_faults` is covered by some entry
/// of `schedule` according to `entries` (period indices in both refer
/// to schedule.periods).
ScheduleValidation validate_schedule(const TestSchedule& schedule,
                                     std::span<const DetectionEntry> entries,
                                     std::span<const std::uint32_t> target_faults);

}  // namespace fastmon
