#include "sim/fault_sim.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/generator.hpp"
#include "timing/sta_engine.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

// a -> buf -> y (observed): the simplest fault propagation path.
struct BufFixture {
    Netlist nl;
    DelayAnnotation ann;
    WaveSim sim;
    FaultSim fsim;

    BufFixture()
        : nl(NetlistBuilder("buf1")
                 .input("a")
                 .buf("g", "a")
                 .output("g")
                 .build()),
          ann(DelayAnnotation::nominal(nl)),
          sim(nl, ann),
          fsim(sim) {}
};

TEST(FaultSim, OutputFaultShiftsEdgeByDelta) {
    BufFixture f;
    const GateId g = f.nl.find("g");
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const auto good = f.sim.simulate(v1, v2);

    DelayFault fault;
    fault.site = FaultSite{g, FaultSite::kOutputPin};
    fault.slow_rising = true;
    fault.delta = 7.5;
    const auto diffs = f.fsim.simulate(fault, good);
    ASSERT_EQ(diffs.size(), 1u);
    // Difference window: exactly [t_good_edge, t_good_edge + delta).
    const Time edge = good[g].transitions()[0];
    const IntervalSet ones = diffs[0].diff.ones(1000.0);
    ASSERT_EQ(ones.size(), 1u);
    EXPECT_NEAR(ones[0].lo, edge, 1e-9);
    EXPECT_NEAR(ones[0].hi, edge + 7.5, 1e-9);
}

TEST(FaultSim, WrongPolarityNotActivated) {
    BufFixture f;
    const GateId g = f.nl.find("g");
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const auto good = f.sim.simulate(v1, v2);

    DelayFault fault;
    fault.site = FaultSite{g, FaultSite::kOutputPin};
    fault.slow_rising = false;  // slow-to-fall, but the edge rises
    fault.delta = 7.5;
    EXPECT_FALSE(f.fsim.activated(fault, good));
    EXPECT_TRUE(f.fsim.simulate(fault, good).empty());
}

TEST(FaultSim, InputPinFaultOnlyAffectsThatBranch) {
    // a fans out to two buffers; the fault on one branch leaves the
    // other path clean.
    NetlistBuilder b("branch");
    b.input("a");
    b.buf("p", "a");
    b.buf("q", "a");
    b.output("p");
    b.output("q");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const FaultSim fsim(sim);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const auto good = sim.simulate(v1, v2);

    DelayFault fault;
    fault.site = FaultSite{nl.find("p"), 0};  // branch a->p
    fault.slow_rising = true;
    fault.delta = 5.0;
    const auto diffs = fsim.simulate(fault, good);
    ASSERT_EQ(diffs.size(), 1u);
    const auto ops = nl.observe_points();
    EXPECT_EQ(ops[diffs[0].observe_index].signal, nl.find("p"));
}

TEST(FaultSim, StemFaultAffectsAllBranches) {
    NetlistBuilder b("stem");
    b.input("a");
    b.inv("s", "a");
    b.buf("p", "s");
    b.buf("q", "s");
    b.output("p");
    b.output("q");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const FaultSim fsim(sim);
    const std::vector<Bit> v1{1};
    const std::vector<Bit> v2{0};  // a falls -> s rises
    const auto good = sim.simulate(v1, v2);

    DelayFault fault;
    fault.site = FaultSite{nl.find("s"), FaultSite::kOutputPin};
    fault.slow_rising = true;
    fault.delta = 6.0;
    const auto diffs = fsim.simulate(fault, good);
    EXPECT_EQ(diffs.size(), 2u);
}

TEST(FaultSim, DeltaZeroProducesNoDifference) {
    BufFixture f;
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const auto good = f.sim.simulate(v1, v2);
    DelayFault fault;
    fault.site = FaultSite{f.nl.find("g"), FaultSite::kOutputPin};
    fault.slow_rising = true;
    fault.delta = 0.0;
    EXPECT_TRUE(f.fsim.simulate(fault, good).empty());
}

// Properties of the difference waveforms.  Note that a measure bound of
// edges * delta would be UNSOUND: inertial pulse swallowing downstream
// can amplify a shifted edge into a much longer disagreement, and the
// faulty circuit can glitch where the good output was quiet.  What must
// hold: the difference starts no earlier than the first slow-direction
// edge at the site, and ends no later than the STA maximum arrival at
// the output plus delta (a single lumped fault retards any path at most
// once).
class FaultSimProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSimProperty, DifferenceWindowBounds) {
    GeneratorConfig gc;
    gc.name = "fs_gen";
    gc.n_gates = 250;
    gc.n_ffs = 25;
    gc.n_inputs = 10;
    gc.n_outputs = 10;
    gc.depth = 10;
    gc.spread = 0.5;
    gc.seed = GetParam();
    const Netlist nl = generate_circuit(gc);
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const StaResult sta = StaEngine(nl, ann).analyze();
    const WaveSim sim(nl, ann);
    const FaultSim fsim(sim);
    Prng rng(GetParam() * 3 + 1);
    const std::size_t n = nl.comb_sources().size();
    std::vector<Bit> v1(n);
    std::vector<Bit> v2(n);
    for (std::size_t s = 0; s < n; ++s) {
        v1[s] = rng.chance(0.5) ? 1 : 0;
        v2[s] = rng.chance(0.5) ? 1 : 0;
    }
    const auto good = sim.simulate(v1, v2);

    for (int k = 0; k < 40; ++k) {
        const GateId gate =
            static_cast<GateId>(rng.next_below(nl.size()));
        if (!is_combinational(nl.gate(gate).type)) continue;
        DelayFault fault;
        fault.site = FaultSite{gate, FaultSite::kOutputPin};
        fault.slow_rising = rng.chance(0.5);
        fault.delta = rng.uniform(1.0, 40.0);
        const auto diffs = fsim.simulate(fault, good);
        if (!fsim.activated(fault, good)) {
            EXPECT_TRUE(diffs.empty());
            continue;
        }
        // Earliest possible divergence: the first slow-direction edge at
        // the site signal.
        Time first_slow_edge = std::numeric_limits<Time>::max();
        bool value = good[gate].initial();
        for (Time t : good[gate].transitions()) {
            value = !value;
            if (value == fault.slow_rising) {
                first_slow_edge = t;
                break;
            }
        }
        const auto ops = nl.observe_points();
        for (const ObserveDiff& od : diffs) {
            const IntervalSet ones = od.diff.ones(1e6);
            ASSERT_FALSE(ones.empty());
            EXPECT_GE(ones.min(), first_slow_edge - 1e-6)
                << "gate " << nl.gate(gate).name;
            const Time latest =
                sta.max_arrival[ops[od.observe_index].signal];
            EXPECT_LE(ones.max(), latest + fault.delta + 1e-6)
                << "gate " << nl.gate(gate).name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSimProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// Property: fault simulation via cone overlay equals full re-simulation
// with a modified annotation (for output-pin faults, slowing a gate's
// arcs in the slow direction by delta is NOT identical in general, but
// a brute-force overlay re-simulation of the full circuit must match).
class ConeVsFullResim : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConeVsFullResim, OverlayMatchesFullResimulation) {
    GeneratorConfig gc;
    gc.name = "cone_gen";
    gc.n_gates = 200;
    gc.n_ffs = 20;
    gc.n_inputs = 8;
    gc.n_outputs = 8;
    gc.depth = 9;
    gc.spread = 0.5;
    gc.seed = GetParam() + 100;
    const Netlist nl = generate_circuit(gc);
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const FaultSim fsim(sim);
    Prng rng(GetParam() * 7 + 5);
    const std::size_t n = nl.comb_sources().size();
    std::vector<std::vector<Waveform>> goods;
    for (int p = 0; p < 3; ++p) {
        std::vector<Bit> v1(n);
        std::vector<Bit> v2(n);
        for (std::size_t s = 0; s < n; ++s) {
            v1[s] = rng.chance(0.5) ? 1 : 0;
            v2[s] = rng.chance(0.5) ? 1 : 0;
        }
        goods.push_back(sim.simulate(v1, v2));
    }

    // Full re-simulation: evaluate every gate with the faulty waveform
    // overlay (no cone shortcut).
    auto full_resim = [&](const DelayFault& fault,
                          const std::vector<Waveform>& good) {
        std::vector<Waveform> faulty(nl.size(), Waveform::constant(false));
        std::vector<const Waveform*> fanin_waves;
        for (GateId id : nl.topo_order()) {
            const Gate& g = nl.gate(id);
            const std::uint32_t src = nl.source_index(id);
            if (src != std::numeric_limits<std::uint32_t>::max()) {
                faulty[id] = good[id];
                continue;
            }
            Waveform pin_wave;
            fanin_waves.clear();
            for (std::uint32_t p = 0; p < g.fanin.size(); ++p) {
                fanin_waves.push_back(&faulty[g.fanin[p]]);
            }
            if (fault.site.gate == id &&
                fault.site.pin != FaultSite::kOutputPin) {
                pin_wave = faulty[g.fanin[fault.site.pin]].with_slowed_edges(
                    fault.slow_rising, fault.delta);
                fanin_waves[fault.site.pin] = &pin_wave;
            }
            faulty[id] = sim.eval_gate(id, fanin_waves);
            if (fault.site.gate == id &&
                fault.site.pin == FaultSite::kOutputPin) {
                faulty[id] = faulty[id].with_slowed_edges(fault.slow_rising,
                                                          fault.delta);
            }
        }
        return faulty;
    };

    std::vector<DelayFault> faults;
    for (int k = 0; k < 15; ++k) {
        const GateId gate = static_cast<GateId>(rng.next_below(nl.size()));
        const Gate& g = nl.gate(gate);
        if (!is_combinational(g.type)) continue;
        DelayFault fault;
        const bool on_input = rng.chance(0.5) && !g.fanin.empty();
        fault.site = FaultSite{
            gate, on_input ? static_cast<std::uint32_t>(
                                 rng.next_below(g.fanin.size()))
                           : FaultSite::kOutputPin};
        fault.slow_rising = rng.chance(0.5);
        fault.delta = rng.uniform(2.0, 30.0);
        faults.push_back(fault);
    }

    // Every (fault, pattern) pair in shuffled order through one shared
    // scratch: stale overlay entries or queue stamps of an earlier call
    // must not leak into a later one.
    std::vector<std::pair<std::size_t, std::size_t>> cases;
    for (std::size_t f = 0; f < faults.size(); ++f) {
        for (std::size_t p = 0; p < goods.size(); ++p) cases.emplace_back(f, p);
    }
    for (std::size_t i = cases.size(); i > 1; --i) {
        std::swap(cases[i - 1], cases[rng.next_below(i)]);
    }
    FaultSimScratch scratch;
    const auto ops = nl.observe_points();
    for (const auto& [f, p] : cases) {
        const DelayFault& fault = faults[f];
        const std::vector<Waveform>& good = goods[p];
        const auto expected = full_resim(fault, good);
        const auto diffs = fsim.simulate(fault, good, scratch);
        // Build the diff map from the full re-simulation.
        std::vector<std::uint32_t> expect_index;
        std::vector<Waveform> expect_diffs;
        for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
            const Waveform x =
                Waveform::xor_of(good[ops[oi].signal], expected[ops[oi].signal]);
            if (!x.is_constant() || x.initial()) {
                expect_index.push_back(oi);
                expect_diffs.push_back(x);
            }
        }
        SCOPED_TRACE("fault " + std::to_string(f) + ", pattern " +
                     std::to_string(p));
        ASSERT_EQ(diffs.size(), expect_diffs.size());
        for (std::size_t d = 0; d < diffs.size(); ++d) {
            EXPECT_EQ(diffs[d].observe_index, expect_index[d]);
            EXPECT_EQ(diffs[d].diff, expect_diffs[d]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConeVsFullResim,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace fastmon
