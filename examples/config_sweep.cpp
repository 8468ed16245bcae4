// Ablation: how much does monitor *programmability* buy?
//
// The paper argues (Sec. III-B) that the set of selectable delay
// elements both raises HDF coverage and creates scheduling freedom.
// This example sweeps the configuration set on one circuit — from a
// single fixed delay element (the prior art of [14]) to the paper's
// four-element programmable monitor — and reports, per configuration
// set, the detectable-fault count and the required FAST frequencies.
// The detection ranges are computed once; each configuration set is
// evaluated by pure range shifting.
#include <cstdio>
#include <iostream>

#include "flow/hdf_flow.hpp"
#include "netlist/generator.hpp"

int main() {
    using namespace fastmon;

    GeneratorConfig gc;
    gc.name = "config_sweep";
    gc.n_gates = 1200;
    gc.n_ffs = 140;
    gc.n_inputs = 24;
    gc.n_outputs = 24;
    gc.depth = 20;
    gc.spread = 0.8;
    gc.seed = 99;
    const Netlist netlist = generate_circuit(gc);

    HdfFlowConfig config;
    config.seed = 99;
    config.max_simulated_faults = 2000;
    HdfFlow flow(netlist, config);
    flow.prepare();
    const Time clk = flow.sta().clock_period;
    const Interval window = fast_window(clk, config.fmax_factor);
    std::cout << "circuit " << netlist.name() << ", clk = " << clk
              << " ps, simulated faults " << flow.ranges().size() << "\n\n";

    struct ConfigSet {
        const char* name;
        std::vector<double> fractions;
    };
    const std::vector<ConfigSet> sweeps{
        {"no monitors", {}},
        {"fixed d=1/3 clk   [14]", {1.0 / 3.0}},
        {"two elements {0.15, 1/3}", {0.15, 1.0 / 3.0}},
        {"paper: {.05,.10,.15,1/3}", {0.05, 0.10, 0.15, 1.0 / 3.0}},
        {"eight uniform elements",
         {1.0 / 24, 2.0 / 24, 3.0 / 24, 4.0 / 24, 5.0 / 24, 6.0 / 24,
          7.0 / 24, 8.0 / 24}},
    };

    std::printf("%-28s %10s %10s %8s\n", "configuration set", "detected",
                "targets", "|F|");
    for (const ConfigSet& cs : sweeps) {
        std::vector<Time> delays{0.0};
        for (double f : cs.fractions) delays.push_back(f * clk);

        // Detected faults and FAST targets under this configuration set.
        std::size_t detected = 0;
        std::vector<IntervalSet> target_ranges;
        for (const FaultRanges& r : flow.ranges()) {
            IntervalSet full = full_detection_range(r, delays);
            const bool at_speed = detects_at_speed(full, clk);
            full.clip(window.lo, window.hi);
            if (full.empty()) continue;
            ++detected;
            if (!at_speed) target_ranges.push_back(std::move(full));
        }
        FrequencySelectOptions fopts;
        const FrequencySelection sel =
            select_frequencies(target_ranges, fopts);

        std::printf("%-28s %10zu %10zu %8zu\n", cs.name, detected,
                    target_ranges.size(), sel.periods.size());
    }
    std::cout
        << "\nThe first delay element buys the coverage jump (it shifts\n"
           "short-path fault effects into the FAST window); additional\n"
           "elements buy scheduling freedom and at-speed monitor\n"
           "detection (smaller target sets) — the paper's case for\n"
           "reusing *programmable* monitors in FAST.\n";
    return 0;
}
