#include "sim/logic_sim.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

TEST(LogicSim, EvaluatesAdderCorrectly) {
    const Netlist nl = make_mini_adder();
    const LogicSim sim(nl);
    const std::size_t n_src = nl.comb_sources().size();

    // Source order: PIs (ia0, ib0, ..., cin) then FFs (a0..a3, b0..b3).
    // The sum logic reads the registers, so drive the FF sources.
    for (std::uint32_t a = 0; a < 16; ++a) {
        for (std::uint32_t b = 0; b < 16; b += 3) {
            std::vector<Bit> src(n_src, 0);
            for (int i = 0; i < 4; ++i) {
                src[nl.source_index(nl.find("a" + std::to_string(i)))] =
                    (a >> i) & 1;
                src[nl.source_index(nl.find("b" + std::to_string(i)))] =
                    (b >> i) & 1;
            }
            const std::vector<Bit> values = sim.eval(src);
            std::uint32_t sum = 0;
            for (int i = 0; i < 4; ++i) {
                sum |= static_cast<std::uint32_t>(
                           values[nl.find("s" + std::to_string(i))])
                       << i;
            }
            sum |= static_cast<std::uint32_t>(values[nl.find("c3")]) << 4;
            EXPECT_EQ(sum, a + b) << "a=" << a << " b=" << b;
        }
    }
}

TEST(LogicSim, AluOpcodesWork) {
    const Netlist nl = make_mini_alu();
    const LogicSim sim(nl);
    const std::size_t n_src = nl.comb_sources().size();
    Prng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        const auto x = static_cast<std::uint32_t>(rng.next_below(16));
        const auto y = static_cast<std::uint32_t>(rng.next_below(16));
        const auto op = static_cast<std::uint32_t>(rng.next_below(4));
        std::vector<Bit> src(n_src, 0);
        for (int i = 0; i < 4; ++i) {
            src[nl.source_index(nl.find("x" + std::to_string(i)))] =
                (x >> i) & 1;
            src[nl.source_index(nl.find("y" + std::to_string(i)))] =
                (y >> i) & 1;
        }
        src[nl.source_index(nl.find("op0"))] = op & 1;
        src[nl.source_index(nl.find("op1"))] = (op >> 1) & 1;
        const std::vector<Bit> values = sim.eval(src);
        std::uint32_t result = 0;
        for (int i = 0; i < 4; ++i) {
            // Registered result: the FF D value is the op result.
            const GateId q = nl.find("q" + std::to_string(i));
            result |= static_cast<std::uint32_t>(
                          values[nl.gate(q).fanin[0]])
                      << i;
        }
        std::uint32_t expect = 0;
        switch (op) {
            case 0: expect = x & y; break;
            case 1: expect = x | y; break;
            case 2: expect = x ^ y; break;
            case 3: expect = (x + y) & 0xF; break;
        }
        EXPECT_EQ(result, expect) << "x=" << x << " y=" << y << " op=" << op;
    }
}

// Property: eval64 lane k equals eval of pattern k.
class Eval64Agreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Eval64Agreement, LanesMatchScalar) {
    GeneratorConfig gc;
    gc.name = "ls_gen";
    gc.n_gates = 300;
    gc.n_ffs = 30;
    gc.n_inputs = 10;
    gc.n_outputs = 10;
    gc.depth = 10;
    gc.spread = 0.5;
    gc.seed = GetParam();
    const Netlist nl = generate_circuit(gc);
    const LogicSim sim(nl);
    const std::size_t n_src = nl.comb_sources().size();
    Prng rng(GetParam() * 17);

    std::vector<std::vector<Bit>> patterns(64, std::vector<Bit>(n_src));
    std::vector<std::uint64_t> packed(n_src, 0);
    for (std::size_t lane = 0; lane < 64; ++lane) {
        for (std::size_t s = 0; s < n_src; ++s) {
            patterns[lane][s] = rng.chance(0.5) ? 1 : 0;
            if (patterns[lane][s] != 0) packed[s] |= 1ULL << lane;
        }
    }
    const std::vector<std::uint64_t> wide = sim.eval64(packed);
    for (std::size_t lane = 0; lane < 64; lane += 7) {
        const std::vector<Bit> narrow = sim.eval(patterns[lane]);
        for (GateId id = 0; id < nl.size(); ++id) {
            EXPECT_EQ((wide[id] >> lane) & 1, narrow[id])
                << "gate " << nl.gate(id).name << " lane " << lane;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Eval64Agreement,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(LogicSim, TernaryMatchesFaninReference) {
    // eval64_ternary (the activation screen's kernel) against a plain
    // evaluation over Gate::fanin, bit for bit.
    GeneratorConfig gc;
    gc.name = "ternary_ref";
    gc.n_gates = 300;
    gc.n_ffs = 30;
    gc.n_inputs = 10;
    gc.n_outputs = 10;
    gc.depth = 10;
    gc.spread = 0.5;
    gc.seed = 5;
    const Netlist nl = generate_circuit(gc);
    const LogicSim sim(nl);
    const std::size_t n_src = nl.comb_sources().size();
    Prng rng(23);
    std::vector<std::uint64_t> can0(n_src);
    std::vector<std::uint64_t> can1(n_src);
    for (std::size_t s = 0; s < n_src; ++s) {
        const std::uint64_t v1 = rng.next_u64();
        const std::uint64_t v2 = rng.next_u64();
        can0[s] = ~v1 | ~v2;
        can1[s] = v1 | v2;
    }
    const LogicSim::TernaryValues got = sim.eval64_ternary(can0, can1);

    std::vector<std::uint64_t> want0(nl.size(), 0);
    std::vector<std::uint64_t> want1(nl.size(), 0);
    for (GateId id : nl.topo_order()) {
        const std::uint32_t src = nl.source_index(id);
        if (src != std::numeric_limits<std::uint32_t>::max()) {
            want0[id] = can0[src];
            want1[id] = can1[src];
            continue;
        }
        std::vector<std::uint64_t> in0;
        std::vector<std::uint64_t> in1;
        for (GateId f : nl.gate(id).fanin) {
            in0.push_back(want0[f]);
            in1.push_back(want1[f]);
        }
        eval_cell64_ternary(nl.gate(id).type, in0, in1, want0[id], want1[id]);
    }
    EXPECT_EQ(got.can0, want0);
    EXPECT_EQ(got.can1, want1);
}

TEST(LogicSim, RequiresFinalizedNetlist) {
    Netlist nl("unfinalized");
    nl.add_gate(CellType::Input, "a", {});
    EXPECT_THROW(LogicSim sim(nl), std::logic_error);
}

}  // namespace
}  // namespace fastmon
