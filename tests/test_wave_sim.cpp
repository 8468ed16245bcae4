#include "sim/wave_sim.hpp"

#include "timing/sta_engine.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

TEST(WaveSim, ConstantInputsGiveConstantWaves) {
    const Netlist nl = make_s27();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const std::size_t n = nl.comb_sources().size();
    const std::vector<Bit> v(n, 1);
    const std::vector<Waveform> waves = sim.simulate(v, v);
    for (GateId id = 0; id < nl.size(); ++id) {
        EXPECT_TRUE(waves[id].is_constant()) << nl.gate(id).name;
    }
}

TEST(WaveSim, SingleInverterDelaysEdge) {
    NetlistBuilder b("inv1");
    b.input("a");
    b.inv("y", "a");
    b.output("y");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    const GateId y = nl.find("y");
    ASSERT_EQ(waves[y].num_transitions(), 1u);
    // Input rises at 0 -> output falls after the fall delay.
    EXPECT_TRUE(waves[y].initial());
    EXPECT_FALSE(waves[y].final());
    EXPECT_NEAR(waves[y].transitions()[0], ann.arc(y, 0).fall, 1e-9);
}

TEST(WaveSim, ChainAccumulatesDelay) {
    NetlistBuilder b("chain");
    b.input("a");
    b.buf("b1", "a");
    b.buf("b2", "b1");
    b.buf("b3", "b2");
    b.output("b3");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    const GateId b3 = nl.find("b3");
    ASSERT_EQ(waves[b3].num_transitions(), 1u);
    Time expect = 0.0;
    expect += ann.arc(nl.find("b1"), 0).rise;
    expect += ann.arc(nl.find("b2"), 0).rise;
    expect += ann.arc(nl.find("b3"), 0).rise;
    EXPECT_NEAR(waves[b3].transitions()[0], expect, 1e-9);
}

TEST(WaveSim, StaticHazardProducesGlitchWithoutFilter) {
    // Classic XOR hazard: a -> xor(a, inv(a)); unequal path delays make
    // the output pulse once on an input edge.
    NetlistBuilder b("hazard");
    b.input("a");
    b.inv("n", "a");
    b.buf("d1", "a");
    b.buf("d2", "d1");
    b.xor2("y", "d2", "n");
    b.output("y");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    WaveSimConfig raw;
    raw.inertial_fraction = 0.0;  // keep all pulses
    const WaveSim sim(nl, ann, raw);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    const GateId y = nl.find("y");
    // XOR(delayed a, !a): both steady states are 1; the mismatch window
    // produces a 1->0->1 glitch: two transitions.
    EXPECT_TRUE(waves[y].initial());
    EXPECT_TRUE(waves[y].final());
    EXPECT_EQ(waves[y].num_transitions(), 2u);
}

TEST(WaveSim, InertialFilterSwallowsGlitch) {
    NetlistBuilder b("hazard2");
    b.input("a");
    b.inv("n", "a");
    b.xor2("y", "a", "n");  // minimal skew: tiny pulse
    b.output("y");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    WaveSimConfig strong;
    strong.inertial_fraction = 1.0;
    const WaveSim sim(nl, ann, strong);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    const GateId y = nl.find("y");
    EXPECT_EQ(waves[y].num_transitions(), 0u);
}

TEST(WaveSim, FinalValuesMatchLogicSim) {
    const Netlist nl = generate_circuit(
        GeneratorConfig{"ws_gen", 400, 40, 12, 12, 12, 0.6, 21});
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim wave_sim(nl, ann);
    const LogicSim logic_sim(nl);
    Prng rng(77);
    const std::size_t n = nl.comb_sources().size();
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<Bit> v1(n);
        std::vector<Bit> v2(n);
        for (std::size_t s = 0; s < n; ++s) {
            v1[s] = rng.chance(0.5) ? 1 : 0;
            v2[s] = rng.chance(0.5) ? 1 : 0;
        }
        const std::vector<Waveform> waves = wave_sim.simulate(v1, v2);
        const std::vector<Bit> initial = logic_sim.eval(v1);
        const std::vector<Bit> final_values = logic_sim.eval(v2);
        for (GateId id = 0; id < nl.size(); ++id) {
            EXPECT_EQ(waves[id].initial(), initial[id] != 0)
                << "initial of " << nl.gate(id).name;
            EXPECT_EQ(waves[id].final(), final_values[id] != 0)
                << "final of " << nl.gate(id).name;
        }
    }
}

TEST(WaveSim, SettleTimesRespectSta) {
    const Netlist nl = generate_circuit(
        GeneratorConfig{"ws_sta", 500, 50, 12, 12, 14, 0.5, 22});
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const StaResult sta = StaEngine(nl, ann).analyze();
    const WaveSim sim(nl, ann);
    Prng rng(78);
    const std::size_t n = nl.comb_sources().size();
    std::vector<Bit> v1(n);
    std::vector<Bit> v2(n);
    for (std::size_t s = 0; s < n; ++s) {
        v1[s] = rng.chance(0.5) ? 1 : 0;
        v2[s] = rng.chance(0.5) ? 1 : 0;
    }
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    for (GateId id = 0; id < nl.size(); ++id) {
        // No signal settles after its STA max arrival.
        EXPECT_LE(waves[id].settle_time(), sta.max_arrival[id] + 1e-6)
            << nl.gate(id).name;
        // And no transition happens before the STA min arrival.
        if (waves[id].num_transitions() > 0 &&
            is_combinational(nl.gate(id).type)) {
            EXPECT_GE(waves[id].transitions()[0],
                      sta.min_arrival[id] - 1e-6)
                << nl.gate(id).name;
        }
    }
}

TEST(WaveSim, EvalGateIntoReusesDirtyBuffers) {
    // Evaluating into a caller-owned waveform and event buffers that
    // hold stale, longer contents must give the fresh evaluation.  Fanin
    // toggles are drawn from a shared time grid with sub-kTimeEps
    // jitter, so pins toggle together and within the grouping tolerance.
    GeneratorConfig gc;
    gc.name = "eval_into";
    gc.n_gates = 150;
    gc.n_ffs = 10;
    gc.n_inputs = 8;
    gc.n_outputs = 8;
    gc.depth = 8;
    gc.spread = 0.5;
    gc.seed = 31;
    const Netlist nl = generate_circuit(gc);
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    Prng rng(77);

    Waveform out = Waveform::constant(true);
    for (int k = 0; k < 40; ++k) out.toggle_at(1000.0 + k);
    WaveEvalBuffers buf;
    int evaluated = 0;
    for (GateId id = 0; id < nl.size(); ++id) {
        const Gate& g = nl.gate(id);
        if (!is_combinational(g.type) || g.fanin.size() < 2) continue;
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<Waveform> fanin(g.fanin.size());
            for (Waveform& w : fanin) {
                std::vector<std::pair<Time, bool>> events;
                bool value = rng.chance(0.5);
                const bool initial = value;
                for (int slot = 0; slot < 12; ++slot) {
                    if (!rng.chance(0.4)) continue;
                    const Time jitter =
                        rng.chance(0.5) ? 0.0 : rng.uniform(-0.4, 0.4) * kTimeEps;
                    value = !value;
                    events.emplace_back(5.0 * slot + jitter, value);
                }
                w = Waveform::from_events(initial, events);
            }
            std::vector<const Waveform*> ptrs;
            for (const Waveform& w : fanin) ptrs.push_back(&w);
            const Waveform fresh = sim.eval_gate(id, ptrs);
            sim.eval_gate(id, ptrs, out, buf);
            EXPECT_EQ(out, fresh) << g.name << " trial " << trial;
            ++evaluated;
        }
    }
    EXPECT_GT(evaluated, 200);
}

TEST(WaveSim, InertialThresholdScalesWithConfig) {
    const Netlist nl = make_s27();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim a(nl, ann, WaveSimConfig{0.4});
    const WaveSim b(nl, ann, WaveSimConfig{0.8});
    const WaveSim off(nl, ann, WaveSimConfig{0.0});
    const GateId g = nl.find("G9");
    EXPECT_NEAR(b.inertial_threshold(g), 2.0 * a.inertial_threshold(g), 1e-9);
    EXPECT_DOUBLE_EQ(off.inertial_threshold(g), 0.0);
}

}  // namespace
}  // namespace fastmon
