// Scalar oracle for the 64-lane transition-fault simulator.
//
// TransitionFaultSim::detect_mask packs 64 pattern pairs per word and
// re-simulates only the fault site's fanout cone.  The reference here
// shares none of that: it evaluates every node of the circuit with its
// own truth tables, one pattern pair at a time — v1, v2, then v2 again
// with the fault site held at its v1 value — and calls the fault
// detected when an observation point differs.  Both detect_mask and
// fault_simulate_tdf must agree with it bit for bit on generated paper
// profiles, for both transition directions at output and input-pin
// sites.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "atpg/tfault_sim.hpp"
#include "netlist/generator.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

bool cell_value(CellType type, const std::vector<bool>& in) {
    auto count_ones = [&in] {
        std::size_t n = 0;
        for (bool b : in) n += b ? 1 : 0;
        return n;
    };
    switch (type) {
        case CellType::Buf: return in[0];
        case CellType::Inv: return !in[0];
        case CellType::And: return count_ones() == in.size();
        case CellType::Nand: return count_ones() != in.size();
        case CellType::Or: return count_ones() != 0;
        case CellType::Nor: return count_ones() == 0;
        case CellType::Xor: return count_ones() % 2 == 1;
        case CellType::Xnor: return count_ones() % 2 == 0;
        case CellType::Mux2: return in[0] ? in[2] : in[1];
        case CellType::Aoi21: return !((in[0] && in[1]) || in[2]);
        case CellType::Oai21: return !((in[0] || in[1]) && in[2]);
        default: ADD_FAILURE() << "not a logic cell"; return false;
    }
}

/// Values of every node under one source vector.  With a `held` site,
/// that site carries `held_value`: the gate output for an output-pin
/// site, only the one faulted input pin otherwise.
std::vector<bool> simulate(const Netlist& nl, std::span<const Bit> sources,
                           const FaultSite* held = nullptr,
                           bool held_value = false) {
    std::vector<bool> v(nl.size(), false);
    std::vector<bool> in;
    for (GateId id : nl.topo_order()) {
        const std::uint32_t src = nl.source_index(id);
        if (src != std::numeric_limits<std::uint32_t>::max()) {
            v[id] = sources[src] != 0;
            continue;
        }
        const Gate& g = nl.gate(id);
        const bool at_site = held != nullptr && held->gate == id;
        in.clear();
        for (std::uint32_t p = 0; p < g.fanin.size(); ++p) {
            in.push_back(at_site && held->pin == p ? held_value
                                                   : v[g.fanin[p]]);
        }
        v[id] = g.type == CellType::Output ? in[0] : cell_value(g.type, in);
        if (at_site && held->pin == FaultSite::kOutputPin) v[id] = held_value;
    }
    return v;
}

struct GoodValues {
    std::vector<bool> v1;
    std::vector<bool> v2;
};

bool reference_detects(const Netlist& nl, const TdfFault& fault,
                       const PatternPair& pair, const GoodValues& good) {
    const GateId signal = fault.site.pin == FaultSite::kOutputPin
                              ? fault.site.gate
                              : nl.gate(fault.site.gate).fanin[fault.site.pin];
    const bool before = good.v1[signal];
    if (before == good.v2[signal] || good.v2[signal] != fault.slow_rising) {
        return false;  // no launch of the slow transition
    }
    const std::vector<bool> faulty = simulate(nl, pair.v2, &fault.site, before);
    for (const ObservePoint& op : nl.observe_points()) {
        if (faulty[op.signal] != good.v2[op.signal]) return true;
    }
    return false;
}

/// Compares both fast paths with the oracle on `num_faults` sampled
/// faults x `num_pairs` random pattern pairs.  detect_mask is checked
/// lane by lane on the first 64 pairs; fault_simulate_tdf (batching,
/// dropping, a ragged last batch) on all of them.
void check_against_oracle(const Netlist& nl, std::uint64_t seed,
                          std::size_t num_faults, std::size_t num_pairs) {
    Prng rng(seed);
    const std::vector<TdfFault> all = enumerate_tdf_faults(nl);
    std::vector<TdfFault> faults;
    for (std::size_t i = 0; i < num_faults; ++i) {
        faults.push_back(all[rng.next_below(all.size())]);
    }
    const std::size_t n_src = nl.comb_sources().size();
    std::vector<PatternPair> pairs(num_pairs);
    std::vector<GoodValues> good;
    for (PatternPair& p : pairs) {
        p.v1.resize(n_src);
        p.v2.resize(n_src);
        for (std::size_t s = 0; s < n_src; ++s) {
            p.v1[s] = rng.chance(0.5) ? 1 : 0;
            p.v2[s] = rng.chance(0.5) ? 1 : 0;
        }
        good.push_back(GoodValues{simulate(nl, p.v1), simulate(nl, p.v2)});
    }

    TransitionFaultSim sim(nl);
    const auto values = sim.evaluate(sim.pack(pairs, 0));
    const std::vector<std::size_t> first =
        fault_simulate_tdf(nl, faults, pairs);

    std::size_t kinds[2][2] = {};  // [slow_rising][input pin]
    std::size_t detections = 0;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        const TdfFault& f = faults[fi];
        ++kinds[f.slow_rising ? 1 : 0]
               [f.site.pin == FaultSite::kOutputPin ? 0 : 1];
        std::uint64_t expected_mask = 0;
        std::size_t expected_first = SIZE_MAX;
        for (std::size_t p = 0; p < pairs.size(); ++p) {
            if (!reference_detects(nl, f, pairs[p], good[p])) continue;
            ++detections;
            if (p < 64) expected_mask |= 1ULL << p;
            if (expected_first == SIZE_MAX) expected_first = p;
        }
        ASSERT_EQ(sim.detect_mask(f, values), expected_mask)
            << "fault " << fi << " at " << nl.gate(f.site.gate).name
            << " pin " << f.site.pin << (f.slow_rising ? " STR" : " STF");
        ASSERT_EQ(first[fi], expected_first) << "fault " << fi;
    }
    // Not vacuous: every fault kind sampled, and detections happen.
    for (const auto& by_dir : kinds) {
        EXPECT_GT(by_dir[0], 0u);
        EXPECT_GT(by_dir[1], 0u);
    }
    EXPECT_GT(detections, num_faults);
}

TEST(TdfOracle, S9234FullScaleMatchesScalarReference) {
    const Netlist nl =
        generate_circuit(profile_config(find_profile("s9234"), 1.0));
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        check_against_oracle(nl, seed, 150, 100);
    }
}

TEST(TdfOracle, S13207ScaledMatchesScalarReference) {
    const Netlist nl =
        generate_circuit(profile_config(find_profile("s13207"), 0.5));
    for (std::uint64_t seed : {4u, 5u}) {
        SCOPED_TRACE(seed);
        check_against_oracle(nl, seed, 150, 100);
    }
}

}  // namespace
}  // namespace fastmon
