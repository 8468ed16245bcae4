#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <tuple>
#include <vector>

#include "netlist/aiger_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "netlist/verilog_io.hpp"

namespace fastmon {
namespace {

Netlist small_seq() {
    NetlistBuilder b("small_seq");
    b.input("a").input("b");
    b.dff_declare("q");
    b.nand2("n1", "a", "q");
    b.or2("n2", "n1", "b");
    b.dff_connect("q", "n2");
    b.output("n2");
    return b.build();
}

/// The flat arc layout agrees with every gate's fanin list, and the
/// topological order opens with exactly the combinational sources.
void expect_arc_layout_consistent(const Netlist& nl) {
    SCOPED_TRACE(nl.name());
    const auto offsets = nl.arc_offsets();
    const auto drivers = nl.arc_drivers();
    ASSERT_EQ(offsets.size(), nl.size() + 1);
    EXPECT_EQ(offsets.front(), 0u);
    EXPECT_EQ(offsets.back(), drivers.size());
    for (GateId id = 0; id < nl.size(); ++id) {
        const std::vector<GateId>& fanin = nl.gate(id).fanin;
        ASSERT_EQ(offsets[id + 1] - offsets[id], fanin.size()) << id;
        for (std::uint32_t pin = 0; pin < fanin.size(); ++pin) {
            EXPECT_EQ(drivers[offsets[id] + pin], fanin[pin])
                << "gate " << id << " pin " << pin;
        }
    }
    const auto sources = nl.comb_sources();
    const auto order = nl.topo_order();
    ASSERT_GE(order.size(), sources.size());
    std::vector<GateId> prefix(order.begin(), order.begin() + sources.size());
    std::vector<GateId> want(sources.begin(), sources.end());
    std::sort(prefix.begin(), prefix.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(prefix, want);
}

TEST(Netlist, ArcLayoutMatchesFaninsOnEveryFrontEnd) {
    expect_arc_layout_consistent(
        generate_circuit(profile_config(find_profile("s9234"))));
    expect_arc_layout_consistent(make_s27());
    expect_arc_layout_consistent(
        read_aiger_string(write_aag_string(make_mini_alu()), "alu_aag"));
    expect_arc_layout_consistent(
        read_verilog_string(write_verilog_string(make_s27())));
    expect_arc_layout_consistent(small_seq());
}

TEST(Netlist, BasicCounts) {
    const Netlist nl = small_seq();
    EXPECT_EQ(nl.primary_inputs().size(), 2u);
    EXPECT_EQ(nl.primary_outputs().size(), 1u);
    EXPECT_EQ(nl.flip_flops().size(), 1u);
    EXPECT_EQ(nl.num_comb_gates(), 2u);
    EXPECT_EQ(nl.size(), 6u);  // 2 PI + 1 FF + 2 gates + 1 pad
}

TEST(Netlist, FindByName) {
    const Netlist nl = small_seq();
    EXPECT_NE(nl.find("n1"), kNoGate);
    EXPECT_NE(nl.find("q"), kNoGate);
    EXPECT_EQ(nl.find("nope"), kNoGate);
    EXPECT_EQ(nl.gate(nl.find("n1")).type, CellType::Nand);
}

TEST(Netlist, CombSourcesAreInputsThenFfs) {
    const Netlist nl = small_seq();
    const auto sources = nl.comb_sources();
    ASSERT_EQ(sources.size(), 3u);
    EXPECT_EQ(nl.gate(sources[0]).type, CellType::Input);
    EXPECT_EQ(nl.gate(sources[1]).type, CellType::Input);
    EXPECT_EQ(nl.gate(sources[2]).type, CellType::Dff);
    for (std::uint32_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(nl.source_index(sources[i]), i);
    }
    EXPECT_EQ(nl.source_index(nl.find("n1")),
              std::numeric_limits<std::uint32_t>::max());
}

TEST(Netlist, ObservePointsArePosThenPpos) {
    const Netlist nl = small_seq();
    const auto ops = nl.observe_points();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_FALSE(ops[0].is_pseudo);
    EXPECT_EQ(ops[0].signal, nl.find("n2"));
    EXPECT_TRUE(ops[1].is_pseudo);
    EXPECT_EQ(ops[1].signal, nl.find("n2"));
}

TEST(Netlist, TopoOrderRespectsDependencies) {
    const Netlist nl = make_s27();
    const auto order = nl.topo_order();
    EXPECT_EQ(order.size(), nl.size());
    for (GateId id = 0; id < nl.size(); ++id) {
        const Gate& g = nl.gate(id);
        if (g.type == CellType::Input || g.type == CellType::Dff) continue;
        for (GateId f : g.fanin) {
            EXPECT_LT(nl.topo_rank(f), nl.topo_rank(id))
                << nl.gate(f).name << " must precede " << g.name;
        }
    }
}

TEST(Netlist, LevelsIncreaseAlongEdges) {
    const Netlist nl = make_s27();
    for (GateId id = 0; id < nl.size(); ++id) {
        const Gate& g = nl.gate(id);
        if (g.type == CellType::Input || g.type == CellType::Dff) {
            EXPECT_EQ(nl.level(id), 0u);
            continue;
        }
        for (GateId f : g.fanin) {
            EXPECT_LT(nl.level(f), nl.level(id));
        }
    }
    EXPECT_GT(nl.depth(), 0u);
}

TEST(Netlist, FanoutConeContainsSelfAndStopsAtRegisters) {
    const Netlist nl = make_s27();
    const GateId g11 = nl.find("G11");
    ASSERT_NE(g11, kNoGate);
    const auto cone = nl.fanout_cone(g11);
    EXPECT_EQ(cone.front(), g11);
    // The cone includes the DFF sink node G6 = DFF(G11) but not G6's
    // own fanouts (register boundary).
    const GateId g6 = nl.find("G6");
    EXPECT_NE(std::find(cone.begin(), cone.end(), g6), cone.end());
    const GateId g8 = nl.find("G8");  // G8 = AND(G14, G6): behind the FF
    EXPECT_EQ(std::find(cone.begin(), cone.end(), g8), cone.end());
}

Netlist generated_s9234() {
    return generate_circuit(profile_config(find_profile("s9234")));
}

/// Independent fanout-cone reference: reachability over fanout edges
/// (registers and pads stop the walk unless they are the root), then
/// sorted root first, combinational nodes and pads by topological rank,
/// register sinks last.
std::vector<GateId> reference_cone(const Netlist& nl, GateId root) {
    std::vector<char> reached(nl.size(), 0);
    std::vector<GateId> todo{root};
    reached[root] = 1;
    std::vector<GateId> cone;
    while (!todo.empty()) {
        const GateId id = todo.back();
        todo.pop_back();
        cone.push_back(id);
        const CellType t = nl.gate(id).type;
        if (id != root && (t == CellType::Dff || t == CellType::Output)) {
            continue;
        }
        for (GateId out : nl.gate(id).fanout) {
            if (reached[out] == 0) {
                reached[out] = 1;
                todo.push_back(out);
            }
        }
    }
    auto key = [&](GateId id) {
        const int group =
            id == root ? 0 : (nl.gate(id).type == CellType::Dff ? 2 : 1);
        return std::make_tuple(group, id == root ? 0u : nl.topo_rank(id));
    };
    std::sort(cone.begin(), cone.end(),
              [&](GateId a, GateId b) { return key(a) < key(b); });
    return cone;
}

TEST(ConeMemo, MatchesReferenceTraversalForEveryGate) {
    const Netlist nl = generated_s9234();
    ASSERT_GT(nl.size(), 2000u);
    EXPECT_EQ(nl.fanout_cones_built(), 0u);  // lazy: nothing built yet
    for (GateId id = 0; id < nl.size(); ++id) {
        ASSERT_EQ(nl.fanout_cone(id), reference_cone(nl, id))
            << "gate " << nl.gate(id).name;
    }
    EXPECT_EQ(nl.fanout_cones_built(), nl.size());
}

TEST(ConeMemo, RepeatedCallsReturnTheSameVector) {
    const Netlist nl = generated_s9234();
    for (GateId id = 0; id < nl.size(); id += 7) {
        const std::vector<GateId>* first = &nl.fanout_cone(id);
        EXPECT_EQ(&nl.fanout_cone(id), first);
    }
    EXPECT_EQ(nl.fanout_cones_built(), (nl.size() + 6) / 7);
}

TEST(ConeMemo, ConcurrentFirstRequestsPublishOneConePerGate) {
    const Netlist nl = generated_s9234();
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<const std::vector<GateId>*>> seen(
        kThreads, std::vector<const std::vector<GateId>*>(nl.size()));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&nl, &seen, t] {
            // Every thread walks every gate; half of them backwards, so
            // first requests collide from both ends.
            for (GateId i = 0; i < nl.size(); ++i) {
                const GateId id =
                    t % 2 == 0 ? i : static_cast<GateId>(nl.size() - 1 - i);
                seen[t][id] = &nl.fanout_cone(id);
            }
        });
    }
    for (std::thread& th : threads) th.join();
    for (GateId id = 0; id < nl.size(); ++id) {
        for (std::size_t t = 1; t < kThreads; ++t) {
            ASSERT_EQ(seen[t][id], seen[0][id]) << "gate " << id;
        }
        ASSERT_EQ(*seen[0][id], reference_cone(nl, id)) << "gate " << id;
    }
    EXPECT_EQ(nl.fanout_cones_built(), nl.size());
}

TEST(ConeMemo, SurvivesMoveConstructionAndMoveAssignment) {
    Netlist original = generated_s9234();
    const GateId root = original.comb_sources()[0];
    const std::vector<GateId>* cone = &original.fanout_cone(root);
    const std::vector<GateId> expected = *cone;

    // Move construction carries the memo: the same cone object answers.
    Netlist moved(std::move(original));
    EXPECT_EQ(&moved.fanout_cone(root), cone);
    EXPECT_EQ(moved.fanout_cones_built(), 1u);

    // Move assignment frees the target's own cones (the sanitizer jobs
    // would report a leak otherwise) and takes over the source's memo.
    Netlist target = make_s27();
    (void)target.fanout_cone(0);
    (void)target.fanout_cone(1);
    target = std::move(moved);
    EXPECT_EQ(&target.fanout_cone(root), cone);
    EXPECT_EQ(*cone, expected);
    EXPECT_EQ(target.fanout_cones_built(), 1u);
    for (GateId id = 0; id < target.size(); ++id) {
        ASSERT_EQ(target.fanout_cone(id), reference_cone(target, id));
    }
}

TEST(ConeMemo, RequiresFinalize) {
    Netlist nl("open");
    nl.add_gate(CellType::Input, "a", {});
    EXPECT_THROW((void)nl.fanout_cone(0), std::logic_error);
}

TEST(Netlist, RejectsCombinationalCycle) {
    Netlist nl("cycle");
    const GateId a = nl.add_gate(CellType::Input, "a", {});
    // g1 and g2 feed each other.
    const GateId g1 = nl.add_gate(CellType::Nand, "g1", {a, a});
    const GateId g2 = nl.add_gate(CellType::Nand, "g2", {g1, a});
    nl.add_gate(CellType::Output, "o$po", {g2});
    // Rewire g1 to depend on g2 (append beyond is blocked; rebuild).
    Netlist bad("cycle2");
    const GateId ba = bad.add_gate(CellType::Input, "a", {});
    const GateId bg1 = bad.add_gate(CellType::Nand, "g1", {});
    const GateId bg2 = bad.add_gate(CellType::Nand, "g2", {});
    bad.append_fanin(bg1, bg2);
    bad.append_fanin(bg1, ba);
    bad.append_fanin(bg2, bg1);
    bad.append_fanin(bg2, ba);
    bad.add_gate(CellType::Output, "o$po", {bg2});
    EXPECT_THROW(bad.finalize(), std::runtime_error);
}

TEST(Netlist, RejectsBadArity) {
    Netlist nl("bad_arity");
    const GateId a = nl.add_gate(CellType::Input, "a", {});
    nl.add_gate(CellType::Inv, "g", {a, a});  // Inv with two fanins
    EXPECT_THROW(nl.finalize(), std::runtime_error);
}

TEST(Netlist, RejectsDuplicateNames) {
    Netlist nl("dups");
    nl.add_gate(CellType::Input, "a", {});
    EXPECT_THROW(nl.add_gate(CellType::Input, "a", {}), std::runtime_error);
}

TEST(Netlist, SequentialLoopThroughDffIsFine) {
    // s27 contains FF feedback loops; finalize must succeed.
    EXPECT_NO_THROW(make_s27());
}

TEST(Netlist, S27MatchesPublishedStatistics) {
    const Netlist nl = make_s27();
    EXPECT_EQ(nl.primary_inputs().size(), 4u);
    EXPECT_EQ(nl.primary_outputs().size(), 1u);
    EXPECT_EQ(nl.flip_flops().size(), 3u);
    EXPECT_EQ(nl.num_comb_gates(), 10u);
}

TEST(Netlist, MiniCircuitsBuild) {
    const Netlist adder = make_mini_adder();
    EXPECT_EQ(adder.primary_outputs().size(), 5u);
    EXPECT_EQ(adder.flip_flops().size(), 8u);
    const Netlist alu = make_mini_alu();
    EXPECT_EQ(alu.flip_flops().size(), 4u);
    EXPECT_GT(alu.num_comb_gates(), 20u);
    for (const std::string& name : embedded_circuit_names()) {
        EXPECT_NO_THROW(make_embedded_circuit(name));
    }
    EXPECT_THROW(make_embedded_circuit("nope"), std::runtime_error);
}

}  // namespace
}  // namespace fastmon
