#include "schedule/validate.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace fastmon {

ScheduleValidation validate_schedule(
    const TestSchedule& schedule, std::span<const DetectionEntry> entries,
    std::span<const std::uint32_t> target_faults) {
    // Selected applications as a lookup set.
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t>> selected;
    for (const ScheduleEntry& e : schedule.entries) {
        selected.emplace(e.period_index, e.pattern, e.config);
    }
    std::unordered_set<std::uint32_t> covered;
    for (const DetectionEntry& d : entries) {
        if (selected.contains({d.period, d.pattern, d.config})) {
            covered.insert(d.fault_index);
        }
    }
    ScheduleValidation v;
    for (std::uint32_t f : target_faults) {
        if (covered.contains(f)) {
            ++v.covered;
        } else {
            v.uncovered_faults.push_back(f);
        }
    }
    std::sort(v.uncovered_faults.begin(), v.uncovered_faults.end());
    v.valid = v.uncovered_faults.empty();
    return v;
}

}  // namespace fastmon
