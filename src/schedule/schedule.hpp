// Test schedule representation and test-time model.
//
// A schedule S is a set of (frequency, pattern, configuration)
// combinations (Sec. III-A): at test period `period`, pattern `pattern`
// is applied while all monitors are set to configuration `config`.
// The test-time model charges a PLL relock per distinct frequency plus
// a per-application cost, reflecting that frequency switches dominate
// (Sec. IV-B, [21, 22]).
#pragma once

#include <cstdint>
#include <vector>

#include "util/interval.hpp"

namespace fastmon {

struct ScheduleEntry {
    std::uint32_t period_index = 0;  ///< index into TestSchedule::periods
    std::uint32_t pattern = 0;
    std::uint16_t config = 0;

    friend bool operator==(const ScheduleEntry&, const ScheduleEntry&) = default;
};

struct TestSchedule {
    std::vector<Time> periods;            ///< distinct test clock periods
    std::vector<ScheduleEntry> entries;   ///< the set S

    [[nodiscard]] std::size_t num_frequencies() const { return periods.size(); }
    [[nodiscard]] std::size_t size() const { return entries.size(); }

    friend bool operator==(const TestSchedule&, const TestSchedule&) = default;
};

struct TestTimeModel {
    /// Cycles lost per frequency switch (PLL relock; "thousands of
    /// instruction cycles", Sec. IV-B).
    double relock_cycles = 25000.0;
    /// Cycles per pattern application (scan load + launch/capture).
    double cycles_per_pattern = 100.0;

    /// Total cost of a schedule in cycles.
    [[nodiscard]] double cycles(const TestSchedule& schedule) const {
        return relock_cycles * static_cast<double>(schedule.num_frequencies()) +
               cycles_per_pattern * static_cast<double>(schedule.size());
    }

    /// Cost of the naive application: every pattern under every
    /// configuration at every frequency.
    [[nodiscard]] double naive_cycles(std::size_t num_frequencies,
                                      std::size_t num_patterns,
                                      std::size_t num_configs) const {
        return relock_cycles * static_cast<double>(num_frequencies) +
               cycles_per_pattern * static_cast<double>(num_frequencies) *
                   static_cast<double>(num_patterns) *
                   static_cast<double>(num_configs);
    }
};

/// Relative reduction (percent) as reported in Tables II/III:
/// (1 - |S| / |P x C x F|) * 100.
double schedule_reduction_percent(std::size_t schedule_size,
                                  std::size_t naive_size);

}  // namespace fastmon
