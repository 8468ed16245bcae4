#include "atpg/podem.hpp"

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"

namespace fastmon {
namespace {

// y = AND(a, b) observed at a PO.
Netlist and_circuit() {
    NetlistBuilder b("and2");
    b.input("a").input("b");
    b.and2("y", "a", "b");
    b.output("y");
    return b.build();
}

TEST(Podem, DetectsStuckAtZeroOnAndOutput) {
    const Netlist nl = and_circuit();
    const Podem podem(nl);
    const GateId y = nl.find("y");
    const PodemResult r =
        podem.generate_test(FaultSite{y, FaultSite::kOutputPin}, false);
    ASSERT_EQ(r.status, PodemStatus::Success);
    // SA0 at y requires a = b = 1.
    EXPECT_TRUE(r.assigned[0]);
    EXPECT_TRUE(r.assigned[1]);
    EXPECT_EQ(r.vector[0], 1);
    EXPECT_EQ(r.vector[1], 1);
    // Event-driven implication: y and its pad at the start (the fault
    // makes y's faulty side 0), y alone after a = 1 (its value holds at
    // (X, 0), so the pad is not revisited), y and the pad after b = 1.
    EXPECT_EQ(r.implied_gates, 5u);
}

TEST(Podem, DetectsStuckAtOneOnAndInput) {
    const Netlist nl = and_circuit();
    const Podem podem(nl);
    const GateId y = nl.find("y");
    // SA1 on input pin 0: needs a=0 (activation) and b=1 (propagation).
    const PodemResult r = podem.generate_test(FaultSite{y, 0}, true);
    ASSERT_EQ(r.status, PodemStatus::Success);
    EXPECT_EQ(r.vector[0], 0);
    EXPECT_EQ(r.vector[1], 1);
}

TEST(Podem, JustifySetsInternalLine) {
    const Netlist nl = and_circuit();
    const Podem podem(nl);
    const GateId y = nl.find("y");
    const PodemResult r1 =
        podem.justify(FaultSite{y, FaultSite::kOutputPin}, true);
    ASSERT_EQ(r1.status, PodemStatus::Success);
    EXPECT_EQ(r1.vector[0], 1);
    EXPECT_EQ(r1.vector[1], 1);
    const PodemResult r0 =
        podem.justify(FaultSite{y, FaultSite::kOutputPin}, false);
    ASSERT_EQ(r0.status, PodemStatus::Success);
    EXPECT_TRUE(r0.vector[0] == 0 || r0.vector[1] == 0);
}

TEST(Podem, ProvesRedundancy) {
    // y = OR(a, AND(a, b)): the AND output stuck-at-0 is undetectable
    // (absorption: y == a regardless).
    NetlistBuilder b("redundant");
    b.input("a").input("b");
    b.and2("g", "a", "b");
    b.or2("y", "a", "g");
    b.output("y");
    const Netlist nl = b.build();
    const Podem podem(nl);
    const GateId g = nl.find("g");
    const PodemResult r =
        podem.generate_test(FaultSite{g, FaultSite::kOutputPin}, false);
    EXPECT_EQ(r.status, PodemStatus::Untestable);
}

TEST(Podem, PropagatesThroughReconvergence) {
    // y = XOR(n1, n2) with n1 = NAND(a, b), n2 = NOR(a, c): fault on a's
    // branch into n1.
    NetlistBuilder b("reconv");
    b.input("a").input("b").input("c");
    b.nand2("n1", "a", "b");
    b.nor2("n2", "a", "c");
    b.xor2("y", "n1", "n2");
    b.output("y");
    const Netlist nl = b.build();
    const Podem podem(nl);
    const GateId n1 = nl.find("n1");
    for (bool sv : {false, true}) {
        const PodemResult r = podem.generate_test(FaultSite{n1, 0}, sv);
        EXPECT_EQ(r.status, PodemStatus::Success) << "stuck " << sv;
    }
}

TEST(Podem, WorksThroughDffObservation) {
    // Fault only observable at a pseudo primary output (FF D input).
    NetlistBuilder b("ppo");
    b.input("a").input("b");
    b.nand2("n", "a", "b");
    b.dff("q", "n");
    b.output("q");
    const Netlist nl = b.build();
    const Podem podem(nl);
    const GateId n = nl.find("n");
    const PodemResult r =
        podem.generate_test(FaultSite{n, FaultSite::kOutputPin}, false);
    EXPECT_EQ(r.status, PodemStatus::Success);
}

// Exhaustive cross-check on s27: PODEM's verdict must agree with brute
// force over all 2^7 source assignments, for every fault site.
TEST(Podem, AgreesWithBruteForceOnS27) {
    const Netlist nl = make_s27();
    const LogicSim sim(nl);
    const std::size_t n_src = nl.comb_sources().size();
    ASSERT_LE(n_src, 16u);
    const Podem podem(nl, 100000);

    std::size_t checked = 0;
    for (GateId id = 0; id < nl.size(); ++id) {
        const Gate& g = nl.gate(id);
        if (!is_combinational(g.type)) continue;
        for (bool sv : {false, true}) {
            const FaultSite site{id, FaultSite::kOutputPin};
            // Brute force: is there an assignment where flipping the
            // site's value changes some observed output?
            bool detectable = false;
            for (std::uint32_t m = 0; m < (1u << n_src) && !detectable; ++m) {
                std::vector<Bit> src(n_src);
                for (std::size_t s = 0; s < n_src; ++s) {
                    src[s] = (m >> s) & 1;
                }
                const std::vector<Bit> good = sim.eval(src);
                if ((good[id] != 0) != !sv) continue;  // not activated
                // Faulty simulation: force the site to sv.
                // Re-evaluate manually with an overlay.
                std::vector<Bit> faulty(nl.size());
                for (GateId t : nl.topo_order()) {
                    const Gate& tg = nl.gate(t);
                    const std::uint32_t sidx = nl.source_index(t);
                    if (sidx != std::numeric_limits<std::uint32_t>::max()) {
                        faulty[t] = src[sidx];
                    } else {
                        bool ins[8];
                        for (std::size_t p = 0; p < tg.fanin.size(); ++p) {
                            ins[p] = faulty[tg.fanin[p]] != 0;
                        }
                        faulty[t] =
                            tg.type == CellType::Output
                                ? static_cast<Bit>(ins[0])
                                : static_cast<Bit>(eval_cell(
                                      tg.type,
                                      std::span<const bool>(
                                          ins, tg.fanin.size())));
                    }
                    if (t == id) faulty[t] = sv ? 1 : 0;
                }
                for (const ObservePoint& op : nl.observe_points()) {
                    if (good[op.signal] != faulty[op.signal]) {
                        detectable = true;
                        break;
                    }
                }
            }
            const PodemResult r = podem.generate_test(site, sv);
            ASSERT_NE(r.status, PodemStatus::Aborted);
            EXPECT_EQ(r.status == PodemStatus::Success, detectable)
                << nl.gate(id).name << " stuck " << sv;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 20u);
}

// Property: on random circuits, every Success result is confirmed by
// logic simulation of the returned vector.
class PodemConfirmation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemConfirmation, SuccessVectorsDetect) {
    GeneratorConfig gc;
    gc.name = "podem_gen";
    gc.n_gates = 150;
    gc.n_ffs = 15;
    gc.n_inputs = 10;
    gc.n_outputs = 8;
    gc.depth = 8;
    gc.spread = 0.5;
    gc.seed = GetParam();
    const Netlist nl = generate_circuit(gc);
    const LogicSim sim(nl);
    const Podem podem(nl, 20000);
    const std::size_t n_src = nl.comb_sources().size();

    std::size_t successes = 0;
    std::size_t aborted = 0;
    for (GateId id = 0; id < nl.size(); id += 3) {
        const Gate& g = nl.gate(id);
        if (!is_combinational(g.type)) continue;
        const FaultSite site{id, FaultSite::kOutputPin};
        const bool sv = (id % 2) == 0;
        const PodemResult r = podem.generate_test(site, sv);
        if (r.status == PodemStatus::Aborted) {
            ++aborted;
            continue;
        }
        if (r.status != PodemStatus::Success) continue;
        ++successes;
        std::vector<Bit> src(n_src, 0);
        for (std::size_t s = 0; s < n_src; ++s) {
            src[s] = r.assigned[s] ? r.vector[s] : 0;
        }
        const std::vector<Bit> good = sim.eval(src);
        // Activation: site at !sv.
        EXPECT_EQ(good[id] != 0, !sv) << nl.gate(id).name;
        // Detection: flipping the site changes an observed value.
        std::vector<Bit> faulty(nl.size());
        for (GateId t : nl.topo_order()) {
            const Gate& tg = nl.gate(t);
            const std::uint32_t sidx = nl.source_index(t);
            if (sidx != std::numeric_limits<std::uint32_t>::max()) {
                faulty[t] = src[sidx];
            } else {
                bool ins[8];
                for (std::size_t p = 0; p < tg.fanin.size(); ++p) {
                    ins[p] = faulty[tg.fanin[p]] != 0;
                }
                faulty[t] = tg.type == CellType::Output
                                ? static_cast<Bit>(ins[0])
                                : static_cast<Bit>(eval_cell(
                                      tg.type, std::span<const bool>(
                                                   ins, tg.fanin.size())));
            }
            if (t == id) faulty[t] = sv ? 1 : 0;
        }
        bool detected = false;
        for (const ObservePoint& op : nl.observe_points()) {
            if (good[op.signal] != faulty[op.signal]) detected = true;
        }
        EXPECT_TRUE(detected) << nl.gate(id).name << " stuck " << sv;
    }
    EXPECT_GT(successes, 0u);
    // The abort rate must stay small on circuits of this size.
    EXPECT_LT(aborted, successes / 2 + 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemConfirmation,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace fastmon
