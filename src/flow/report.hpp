// Rendering of flow results in the paper's table formats.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "flow/hdf_flow.hpp"

namespace fastmon {

/// Table I: circuit statistics and targeted hidden delay faults.
void print_table1(std::ostream& os, std::span<const HdfFlowResult> rows);

/// Table II: selected test frequencies and test time.
void print_table2(std::ostream& os, std::span<const HdfFlowResult> rows);

/// Table III: test time reduction per coverage target.
void print_table3(std::ostream& os, std::span<const HdfFlowResult> rows);

/// Fig. 3: HDF coverage over f_max as an ASCII series.
void print_fig3(std::ostream& os, std::span<const CoverageBySpeed> curve);

/// Detection-engine work counters (screen/simulate/detect funnel and
/// per-phase times) per circuit — the perf-debugging companion of the
/// paper tables.  Columns mirror DetectionCounters::to_json().
void print_engine_counters(std::ostream& os,
                           std::span<const HdfFlowResult> rows);

/// Per-phase wall/CPU breakdown of one flow run, with each phase's
/// share of the total wall clock.
void print_phase_table(std::ostream& os, const HdfFlowResult& result);

/// Honesty label of the pattern/config schedule: "proven optimal", or
/// "not proven optimal, N uncovered target faults" when a set-cover
/// solve ran out of budget (the schedule is then only the best found).
[[nodiscard]] std::string schedule_label(const HdfFlowResult& result);

}  // namespace fastmon
