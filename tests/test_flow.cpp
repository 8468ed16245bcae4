#include "flow/hdf_flow.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "flow/report.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "util/subprocess.hpp"

namespace fastmon {
namespace {

HdfFlowConfig small_config() {
    HdfFlowConfig config;
    config.seed = 5;
    config.atpg.max_random_batches = 30;
    config.atpg.max_idle_batches = 4;
    config.solver.time_limit_sec = 3.0;
    return config;
}

TEST(HdfFlow, S27EndToEnd) {
    const Netlist nl = make_s27();
    HdfFlowConfig config = small_config();
    config.monitor_fraction = 0.5;
    HdfFlow flow(nl, config);
    const HdfFlowResult r = flow.run();

    EXPECT_EQ(r.circuit, "s27");
    EXPECT_EQ(r.num_gates, 10u);
    EXPECT_EQ(r.num_ffs, 3u);
    EXPECT_EQ(r.num_monitors, 2u);  // ceil(0.5 * 3) pseudo outputs
    EXPECT_EQ(r.fault_universe, 56u);
    EXPECT_EQ(r.fault_universe,
              r.at_speed_detectable + r.timing_redundant + r.candidate_faults);
    EXPECT_GE(r.detected_prop, r.detected_conv);
    EXPECT_LE(r.target_faults, r.detected_prop);
    EXPECT_GT(r.clock_period, 0.0);
    EXPECT_NEAR(r.t_min, r.clock_period / 3.0, 1e-9);
    EXPECT_EQ(r.schedule_uncovered, 0u);
    // Every s27 transition fault is settled: none aborted, and the
    // efficiency discounts only proven-untestable faults.
    EXPECT_EQ(r.atpg_aborted, 0u);
    EXPECT_GE(r.atpg_efficiency, r.atpg_coverage);
    EXPECT_LE(r.atpg_efficiency, 1.0);
    // Schedule consistency: optimized never exceeds naive.
    EXPECT_LE(r.opti_pc, r.orig_pc);
    ASSERT_EQ(r.coverage_rows.size(), 4u);
    for (std::size_t k = 1; k < r.coverage_rows.size(); ++k) {
        EXPECT_LE(r.coverage_rows[k].num_frequencies,
                  r.coverage_rows[k - 1].num_frequencies);
        EXPECT_LE(r.coverage_rows[k].schedule_size,
                  r.coverage_rows[k - 1].schedule_size);
    }
}

TEST(HdfFlow, PhasesAndManifestCoverTheRun) {
    const Netlist nl = make_s27();
    HdfFlow flow(nl, small_config());
    const HdfFlowResult r = flow.run();

    // Every flow phase is recorded, in execution order.
    const std::vector<std::string> expected{
        "sta",         "monitor_placement",    "atpg",
        "classify",    "fault_sim_pass_a",     "shifting",
        "table1",      "freq_select",          "fault_sim_pass_b",
        "pattern_config_select",               "coverage_rows"};
    ASSERT_EQ(r.phases.size(), expected.size());
    double phase_wall = 0.0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r.phases[i].name, expected[i]);
        EXPECT_GE(r.phases[i].wall_seconds, 0.0);
        phase_wall += r.phases[i].wall_seconds;
    }
    EXPECT_GT(r.total_wall_seconds, 0.0);
    // Phases are parts of the run: their sum cannot exceed the total.
    EXPECT_LE(phase_wall, r.total_wall_seconds * 1.001);

    const RunManifest m = flow.manifest(r);
    EXPECT_EQ(m.phases().size(), expected.size());
    ASSERT_NE(m.circuit().find("name"), nullptr);
    EXPECT_EQ(m.circuit().find("name")->as_string(), "s27");
    ASSERT_NE(m.config().find("seed"), nullptr);
    EXPECT_NE(m.metrics().find("detection"), nullptr);
    // ATPG's fault accounting, from the same result fields as the
    // `atpg faults:` line of fastmon_flow.
    const std::pair<const char*, double> atpg_fields[] = {
        {"atpg_coverage", r.atpg_coverage},
        {"atpg_efficiency", r.atpg_efficiency},
        {"atpg_untestable", static_cast<double>(r.atpg_untestable)},
        {"atpg_aborted", static_cast<double>(r.atpg_aborted)}};
    for (const auto& [key, value] : atpg_fields) {
        const Json* field = m.circuit().find(key);
        ASSERT_NE(field, nullptr) << key;
        EXPECT_EQ(field->as_number(), value) << key;
    }
    EXPECT_GT(r.atpg_coverage, 0.0);
    EXPECT_GT(r.atpg_efficiency, 0.0);
    // ATPG's random/deterministic/compaction split is in the metrics
    // snapshot (gauges, so the phase table does not count it twice),
    // with PODEM's implication work as a counter.
    const Json* gauges = m.metrics().find("gauges");
    ASSERT_NE(gauges, nullptr);
    double atpg_parts = 0.0;
    for (const char* key :
         {"atpg.random_s", "atpg.deterministic_s", "atpg.compact_s"}) {
        const Json* g = gauges->find(key);
        ASSERT_NE(g, nullptr) << key;
        EXPECT_GE(g->as_number(), 0.0) << key;
        atpg_parts += g->as_number();
    }
    EXPECT_LE(atpg_parts, r.phases[2].wall_seconds * 1.001);
    const Json* counters = m.metrics().find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("atpg.implied_gates"), nullptr);
    // The manifest document round-trips through JSON.
    const auto back = RunManifest::from_json(m.to_json());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
}

TEST(HdfFlow, UnprovenScheduleIsLabelled) {
    const Netlist nl = make_s27();
    HdfFlowConfig config = small_config();
    config.monitor_fraction = 0.5;
    // One branch-and-bound node: the set-cover solves cannot prove
    // optimality and keep their best incumbent.
    config.solver.max_nodes = 1;
    HdfFlow flow(nl, config);
    const HdfFlowResult r = flow.run();
    EXPECT_FALSE(r.schedule_proven_optimal);
    EXPECT_EQ(schedule_label(r),
              "not proven optimal, " + std::to_string(r.schedule_uncovered) +
                  " uncovered target faults");
    const RunManifest m = flow.manifest(r);
    ASSERT_NE(m.circuit().find("schedule_proven_optimal"), nullptr);
    EXPECT_FALSE(m.circuit().find("schedule_proven_optimal")->as_bool());
    ASSERT_NE(m.circuit().find("schedule_uncovered"), nullptr);
    EXPECT_EQ(m.circuit().find("schedule_uncovered")->as_number(),
              static_cast<double>(r.schedule_uncovered));

    // The default budget proves the same instance optimal.
    HdfFlowConfig full = small_config();
    full.monitor_fraction = 0.5;
    HdfFlow proven(nl, full);
    const HdfFlowResult p = proven.run();
    EXPECT_TRUE(p.schedule_proven_optimal);
    EXPECT_EQ(schedule_label(p), "proven optimal");
}

TEST(HdfFlow, CoverageCurveIsMonotone) {
    GeneratorConfig gc;
    gc.name = "flow_gen";
    gc.n_gates = 700;
    gc.n_ffs = 80;
    gc.n_inputs = 16;
    gc.n_outputs = 16;
    gc.depth = 16;
    gc.spread = 0.7;
    gc.seed = 77;
    const Netlist nl = generate_circuit(gc);
    HdfFlow flow(nl, small_config());
    flow.prepare();
    const std::vector<double> factors{1.0, 1.5, 2.0, 2.5, 3.0};
    const auto curve = flow.coverage_curve(factors);
    ASSERT_EQ(curve.size(), factors.size());
    for (std::size_t i = 0; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].prop, curve[i].conv - 1e-12);
        EXPECT_LE(curve[i].prop, 1.0 + 1e-12);
        if (i > 0) {
            EXPECT_GE(curve[i].conv, curve[i - 1].conv - 1e-12);
            EXPECT_GE(curve[i].prop, curve[i - 1].prop - 1e-12);
        }
    }
    // The monitor-friendly circuit must show a real gap at fmax = 3.
    EXPECT_GT(curve.back().prop, curve.back().conv);
}

TEST(HdfFlow, MonitorsShiftUndetectableFaultsIntoWindow) {
    GeneratorConfig gc;
    gc.name = "flow_gain";
    gc.n_gates = 700;
    gc.n_ffs = 80;
    gc.n_inputs = 16;
    gc.n_outputs = 16;
    gc.depth = 16;
    gc.spread = 0.8;
    gc.seed = 78;
    const Netlist nl = generate_circuit(gc);
    HdfFlow flow(nl, small_config());
    const HdfFlowResult r = flow.run();
    EXPECT_GT(r.gain_percent, 10.0);
    EXPECT_GT(r.target_faults, 0u);
    EXPECT_GT(r.freq_prop, 0u);
    EXPECT_LE(r.freq_prop, r.freq_heur);
}

TEST(HdfFlow, SuppliedTestSetSkipsAtpg) {
    const Netlist nl = make_s27();
    HdfFlowConfig config = small_config();
    // A minimal hand-rolled pattern set.
    TestSet ts;
    const std::size_t n = nl.comb_sources().size();
    for (std::size_t i = 0; i < 8; ++i) {
        PatternPair p;
        p.v1.assign(n, 0);
        p.v2.assign(n, 0);
        for (std::size_t s = 0; s < n; ++s) {
            p.v1[s] = static_cast<Bit>((i >> (s % 3)) & 1);
            p.v2[s] = static_cast<Bit>(((i + 1) >> (s % 3)) & 1);
        }
        ts.patterns.push_back(std::move(p));
    }
    config.test_set = ts;
    HdfFlow flow(nl, config);
    const HdfFlowResult r = flow.run();
    EXPECT_EQ(r.num_patterns, 8u);
    EXPECT_DOUBLE_EQ(r.atpg_coverage, 0.0);
}

TEST(HdfFlow, SamplingCapsSimulatedFaults) {
    GeneratorConfig gc;
    gc.name = "flow_sample";
    gc.n_gates = 600;
    gc.n_ffs = 60;
    gc.n_inputs = 14;
    gc.n_outputs = 14;
    gc.depth = 14;
    gc.spread = 0.5;
    gc.seed = 79;
    const Netlist nl = generate_circuit(gc);
    HdfFlowConfig config = small_config();
    config.max_simulated_faults = 200;
    HdfFlow flow(nl, config);
    const HdfFlowResult r = flow.run();
    EXPECT_LE(r.simulated_faults, 200u);
    // Scaled estimates stay in the universe's ballpark.
    EXPECT_LE(r.detected_prop, r.candidate_faults);
}

TEST(HdfFlow, DeterministicAcrossRuns) {
    const Netlist nl = make_s27();
    HdfFlow a(nl, small_config());
    HdfFlow b(nl, small_config());
    const HdfFlowResult ra = a.run();
    const HdfFlowResult rb = b.run();
    EXPECT_EQ(ra.detected_conv, rb.detected_conv);
    EXPECT_EQ(ra.detected_prop, rb.detected_prop);
    EXPECT_EQ(ra.freq_prop, rb.freq_prop);
    EXPECT_EQ(ra.opti_pc, rb.opti_pc);
}

TEST(HdfFlow, IdenticalAcrossThreadCounts) {
    // ATPG and both detection passes share the netlist's cone memo; the
    // whole flow must not notice how many lanes the detection engine
    // runs.  Each run gets its own (identical) netlist, so the pooled
    // run fills a fresh memo from its worker threads.  Only the node
    // budget bounds the set-cover solver, so the schedule does not
    // depend on the wall clock.
    GeneratorConfig gc = profile_config(find_profile("s9234"), 0.25);
    gc.seed = 17;
    const Netlist serial_nl = generate_circuit(gc);
    const Netlist pooled_nl = generate_circuit(gc);
    HdfFlowConfig config = small_config();
    config.atpg.max_deterministic_faults = 100;  // PODEM runs, briefly
    config.solver.max_nodes = 20000;
    config.solver.time_limit_sec = 1e6;

    config.num_threads = 1;
    HdfFlow serial(serial_nl, config);
    const HdfFlowResult rs = serial.run();
    config.num_threads = 4;
    HdfFlow pooled(pooled_nl, config);
    const HdfFlowResult rp = pooled.run();

    ASSERT_TRUE(rs.status.complete());
    ASSERT_TRUE(rp.status.complete());
    EXPECT_EQ(serial.patterns().patterns, pooled.patterns().patterns);
    ASSERT_EQ(serial.ranges().size(), pooled.ranges().size());
    for (std::size_t i = 0; i < serial.ranges().size(); ++i) {
        const FaultRanges& a = serial.ranges()[i];
        const FaultRanges& b = pooled.ranges()[i];
        ASSERT_EQ(a.ff, b.ff) << "pass-A fault " << i;
        ASSERT_EQ(a.sr, b.sr) << "pass-A fault " << i;
        ASSERT_EQ(a.active_patterns, b.active_patterns) << "pass-A fault " << i;
    }
    EXPECT_FALSE(serial.detection_table().empty());
    EXPECT_TRUE(std::ranges::equal(serial.detection_table(),
                                   pooled.detection_table()));
    EXPECT_GT(serial.schedule().size(), 0u);
    EXPECT_TRUE(serial.schedule() == pooled.schedule());
    EXPECT_EQ(rs.coverage_rows, rp.coverage_rows);
}

TEST(Report, TablesRenderWithoutCrashing) {
    const Netlist nl = make_s27();
    HdfFlowConfig config = small_config();
    config.monitor_fraction = 0.5;
    HdfFlow flow(nl, config);
    const std::vector<HdfFlowResult> rows{flow.run()};
    std::ostringstream os;
    print_table1(os, rows);
    print_table2(os, rows);
    print_table3(os, rows);
    const std::vector<double> factors{1.0, 2.0, 3.0};
    print_fig3(os, flow.coverage_curve(factors));
    print_engine_counters(os, rows);
    print_phase_table(os, rows.front());
    const std::string out = os.str();
    EXPECT_NE(out.find("s27"), std::string::npos);
    EXPECT_NE(out.find("Phi_tar"), std::string::npos);
    EXPECT_NE(out.find("fmax/fnom"), std::string::npos);
    EXPECT_NE(out.find("pairs_total"), std::string::npos);
    EXPECT_NE(out.find("fault_sim_pass_a"), std::string::npos);
    EXPECT_NE(out.find("total (wall)"), std::string::npos);
}

TEST(FlowCli, RejectsMalformedNumericFlags) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("fastmon_flow_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string log = (dir / "cli.txt").string();
    // fastmon_flow on mini_alu.aag with extra arguments; the child's
    // stdout and stderr go to `log`.
    const auto run = [&](const std::vector<std::string>& extra) {
        std::vector<std::string> argv{FASTMON_FLOW_BIN, "--circuit",
                                      FASTMON_MINI_ALU, "--quiet"};
        argv.insert(argv.end(), extra.begin(), extra.end());
        std::filesystem::remove(log);  // the child appends to it
        SpawnOptions options;
        options.output_path = log;
        auto child = Subprocess::spawn(argv, options);
        EXPECT_TRUE(child.has_value());
        return child ? child->exit_code() : -1;
    };
    const auto log_text = [&] {
        std::ifstream in(log);
        return std::string{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    };
    // Garbage must not degrade to 0 (an all-zero "complete" run) or
    // wrap around to a huge unsigned value.
    const std::vector<std::pair<const char*, const char*>> bad{
        {"--fmax", "abc"},          {"--fmax", "0.5"},
        {"--fmax", "3x"},           {"--fmax", ""},
        {"--seed", "abc"},          {"--seed", "-1"},
        {"--seed", "1.5"},          {"--monitor-fraction", "2"},
        {"--monitor-fraction", "-0.1"}, {"--variation", "-0.5"},
        {"--variation", "nan"},     {"--podem-backtracks", "-5"},
        {"--sat-budget", "1e3"},    {"--sat-restart", " 8"},
        {"--max-faults", "+3"},
    };
    for (const auto& [flag, value] : bad) {
        // ASSERT: a flag that is not rejected runs the whole flow.
        ASSERT_EQ(run({flag, value}), 1) << flag << " '" << value << "'";
        EXPECT_NE(log_text().find(std::string("error: ") + flag),
                  std::string::npos)
            << log_text();
    }
    // Boundary values inside the ranges still run.
    EXPECT_EQ(run({"--fmax", "1", "--monitor-fraction", "0"}), 0)
        << log_text();
    EXPECT_EQ(run({"--monitor-fraction", "1", "--variation", "0",
                   "--seed", "0", "--max-faults", "0"}),
              0)
        << log_text();
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fastmon
