#include "atpg/tdf_atpg.hpp"

#include <gtest/gtest.h>

#include <string>

#include "netlist/builder.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "util/metrics.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

TEST(TfaultSim, EnumeratesBothDirectionsPerPin) {
    NetlistBuilder b("e");
    b.input("a").input("c");
    b.nand2("g", "a", "c");
    b.output("g");
    const Netlist nl = b.build();
    const auto faults = enumerate_tdf_faults(nl);
    EXPECT_EQ(faults.size(), 6u);  // (out + 2 pins) x 2 directions
}

TEST(TfaultSim, DetectsSimpleTransition) {
    // y = BUF(a): STR at y detected by (0 -> 1) transition, pattern at
    // lane 0.
    NetlistBuilder b("buf");
    b.input("a");
    b.buf("y", "a");
    b.output("y");
    const Netlist nl = b.build();
    TransitionFaultSim sim(nl);
    std::vector<PatternPair> pats{{{0}, {1}}, {{1}, {0}}, {{1}, {1}}};
    const auto batch = sim.pack(pats, 0);
    const auto values = sim.evaluate(batch);
    const GateId y = nl.find("y");
    const std::uint64_t str = sim.detect_mask(
        TdfFault{FaultSite{y, FaultSite::kOutputPin}, true}, values);
    EXPECT_EQ(str & 0b111, 0b001u);
    const std::uint64_t stf = sim.detect_mask(
        TdfFault{FaultSite{y, FaultSite::kOutputPin}, false}, values);
    EXPECT_EQ(stf & 0b111, 0b010u);
}

TEST(TfaultSim, PropagationBlockedByOffPath) {
    // y = AND(a, b): transition on a undetected when b = 0.
    NetlistBuilder b("blk");
    b.input("a").input("c");
    b.and2("y", "a", "c");
    b.output("y");
    const Netlist nl = b.build();
    TransitionFaultSim sim(nl);
    // a: 0->1 with c = 0 (blocked), then with c = 1 (detected).
    std::vector<PatternPair> pats{{{0, 0}, {1, 0}}, {{0, 1}, {1, 1}}};
    const auto batch = sim.pack(pats, 0);
    const auto values = sim.evaluate(batch);
    const std::uint64_t m = sim.detect_mask(
        TdfFault{FaultSite{nl.find("y"), 0}, true}, values);
    EXPECT_EQ(m & 0b11, 0b10u);
}

TEST(TfaultSim, FaultSimulateReportsFirstDetectingPattern) {
    const Netlist nl = make_s27();
    Prng rng(7);
    const std::size_t n = nl.comb_sources().size();
    std::vector<PatternPair> pats;
    for (int i = 0; i < 96; ++i) {
        PatternPair p;
        p.v1.resize(n);
        p.v2.resize(n);
        for (std::size_t s = 0; s < n; ++s) {
            p.v1[s] = rng.chance(0.5) ? 1 : 0;
            p.v2[s] = rng.chance(0.5) ? 1 : 0;
        }
        pats.push_back(p);
    }
    const auto faults = enumerate_tdf_faults(nl);
    const auto first = fault_simulate_tdf(nl, faults, pats);
    ASSERT_EQ(first.size(), faults.size());
    TransitionFaultSim sim(nl);
    std::size_t detected = 0;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (first[fi] == SIZE_MAX) continue;
        ++detected;
        // Confirm: the reported pattern detects, and no earlier one does.
        for (std::size_t pi = 0; pi <= first[fi]; ++pi) {
            const auto batch = sim.pack(pats, pi);
            const std::uint64_t m =
                sim.detect_mask(faults[fi], sim.evaluate(batch)) & 1ULL;
            EXPECT_EQ(m != 0, pi == first[fi])
                << "fault " << fi << " pattern " << pi;
        }
    }
    EXPECT_GT(detected, faults.size() / 2);
}

TEST(Atpg, FullCoverageOnS27) {
    AtpgConfig cfg;
    cfg.seed = 3;
    const AtpgResult r = generate_tdf_tests(make_s27(), cfg);
    EXPECT_EQ(r.num_faults, 56u);
    // s27 TDF faults are all testable with enhanced scan.
    EXPECT_EQ(r.num_detected + r.num_untestable, r.num_faults);
    EXPECT_GT(r.coverage(), 0.95);
    EXPECT_GT(r.test_set.size(), 0u);
    EXPECT_LT(r.test_set.size(), 30u);  // compaction works
}

TEST(Atpg, ResultConfirmedByFaultSimulation) {
    const Netlist nl = make_mini_alu();
    AtpgConfig cfg;
    cfg.seed = 4;
    const AtpgResult r = generate_tdf_tests(nl, cfg);
    const auto faults = enumerate_tdf_faults(nl);
    const auto first = fault_simulate_tdf(nl, faults, r.test_set.patterns);
    std::size_t confirmed = 0;
    for (std::size_t fd : first) {
        if (fd != SIZE_MAX) ++confirmed;
    }
    EXPECT_EQ(confirmed, r.num_detected);
}

TEST(Atpg, CompactionKeepsCoverage) {
    // Deterministic phase off: random + compaction only; re-simulating
    // the compacted set must reach the reported coverage.
    const Netlist nl = generate_circuit(
        GeneratorConfig{"atpg_gen", 400, 40, 12, 12, 12, 0.5, 31});
    AtpgConfig cfg;
    cfg.seed = 9;
    cfg.deterministic_phase = false;
    const AtpgResult r = generate_tdf_tests(nl, cfg);
    const auto faults = enumerate_tdf_faults(nl);
    const auto first = fault_simulate_tdf(nl, faults, r.test_set.patterns);
    std::size_t detected = 0;
    for (std::size_t fd : first) {
        if (fd != SIZE_MAX) ++detected;
    }
    EXPECT_EQ(detected, r.num_detected);
    EXPECT_GT(r.coverage(), 0.5);
}

TEST(Atpg, DeterministicPhaseImprovesCoverage) {
    const Netlist nl = generate_circuit(
        GeneratorConfig{"atpg_det", 300, 30, 10, 10, 10, 0.5, 33});
    AtpgConfig random_only;
    random_only.seed = 11;
    random_only.deterministic_phase = false;
    random_only.max_random_batches = 10;
    random_only.max_idle_batches = 3;
    AtpgConfig with_podem = random_only;
    with_podem.deterministic_phase = true;
    const AtpgResult r1 = generate_tdf_tests(nl, random_only);
    const AtpgResult r2 = generate_tdf_tests(nl, with_podem);
    EXPECT_GE(r2.num_detected, r1.num_detected);
    EXPECT_GT(r2.efficiency(), r1.coverage());
}

TEST(Atpg, DeterministicAcrossRuns) {
    AtpgConfig cfg;
    cfg.seed = 21;
    const AtpgResult a = generate_tdf_tests(make_s27(), cfg);
    const AtpgResult b = generate_tdf_tests(make_s27(), cfg);
    EXPECT_EQ(a.test_set.patterns, b.test_set.patterns);
    EXPECT_EQ(a.num_detected, b.num_detected);
}

/// 64-bit FNV-1a over the pattern file text: one hash of every v1/v2 bit
/// of the test set, in order.
std::uint64_t pattern_hash(const TestSet& tests) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : write_patterns_string(tests)) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(Atpg, PinnedS9234TestSet) {
    // The benchmark-sized flow's ATPG at a fixed seed, cut to 100
    // deterministic targets.  Any change to the random phase, PODEM's
    // decisions or the compaction moves one of these numbers; an
    // optimization of the ATPG must leave all of them as they are.
    const CircuitProfile& profile = find_profile("s9234");
    const Netlist nl = generate_circuit(profile_config(profile, 1.0));
    AtpgConfig cfg;
    cfg.seed = 9234 ^ profile.seed;
    cfg.max_random_batches = 150;
    cfg.max_deterministic_faults = 100;
    Counter& backtracks = MetricsRegistry::global().counter("atpg.backtracks");
    const std::uint64_t backtracks_before = backtracks.value();
    const AtpgResult r = generate_tdf_tests(nl, cfg);
    EXPECT_EQ(r.test_set.size(), 233u);
    EXPECT_EQ(r.num_faults, 11538u);
    EXPECT_EQ(r.num_detected, 6409u);
    EXPECT_EQ(r.num_untestable, 63u);
    EXPECT_EQ(r.num_aborted, 28u);
    EXPECT_EQ(backtracks.value() - backtracks_before, 12397u);
    EXPECT_EQ(pattern_hash(r.test_set), 5327795569785133945ULL);
}

}  // namespace
}  // namespace fastmon
