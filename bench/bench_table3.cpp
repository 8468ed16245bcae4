// Reproduces Table III: test time reduction for coverage targets
// 99 / 98 / 95 / 90 % of the targeted hidden delay faults.
#include <iostream>

#include "bench_common.hpp"
#include "flow/report.hpp"

int main() {
    using namespace fastmon;
    const bench::BenchSettings settings = bench::BenchSettings::from_env();
    settings.print_header("Table III — test time per coverage target");
    const std::vector<HdfFlowResult> rows =
        bench::run_all_profiles(settings);
    print_table3(std::cout, rows);
    // A budget-exhausted set cover is "not proven optimal", with its
    // uncovered target count.
    for (const HdfFlowResult& r : rows) {
        std::cout << r.circuit << " schedule: " << schedule_label(r) << "\n";
    }
    std::cout << "\nShape checks (paper: lower coverage targets need at"
                 " most as many frequencies / schedule entries):\n";
    bool ok = true;
    for (const HdfFlowResult& r : rows) {
        for (std::size_t k = 1; k < r.coverage_rows.size(); ++k) {
            const CoverageRow& hi = r.coverage_rows[k - 1];
            const CoverageRow& lo = r.coverage_rows[k];
            if (lo.num_frequencies > hi.num_frequencies) {
                std::cout << "  VIOLATION: " << r.circuit << " cov "
                          << lo.coverage << " uses more frequencies than "
                          << hi.coverage << "\n";
                ok = false;
            }
            if (lo.schedule_size > hi.schedule_size) {
                std::cout << "  VIOLATION: " << r.circuit << " cov "
                          << lo.coverage << " schedule larger than "
                          << hi.coverage << "\n";
                ok = false;
            }
        }
    }
    if (ok) std::cout << "  all rows monotone  [OK]\n";
    return ok ? 0 : 1;
}
