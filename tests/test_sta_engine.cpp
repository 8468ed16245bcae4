// StaEngine against a test-local naive STA, and the DelayDelta
// semantics every delta consumer must share: DelayAnnotation::transform
// (the from-scratch reference: transform, then a fresh StaEngine) and
// BatchStaEngine, which applies each lane's delta to its columns
// directly.  Every comparison is bitwise (EXPECT_EQ on doubles, no
// tolerance); a tolerance here would hide an order-of-operations bug.
#include "timing/sta_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "monitor/aging.hpp"
#include "monitor/placement.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "timing/batch_sta_engine.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

void expect_bitwise_equal(const StaResult& got, const StaResult& want) {
    ASSERT_EQ(got.max_arrival.size(), want.max_arrival.size());
    for (std::size_t i = 0; i < want.max_arrival.size(); ++i) {
        EXPECT_EQ(got.max_arrival[i], want.max_arrival[i]) << "gate " << i;
        EXPECT_EQ(got.min_arrival[i], want.min_arrival[i]) << "gate " << i;
        EXPECT_EQ(got.downstream[i], want.downstream[i]) << "gate " << i;
        EXPECT_EQ(got.path_through[i], want.path_through[i]) << "gate " << i;
    }
    EXPECT_EQ(got.critical_path_length, want.critical_path_length);
    EXPECT_EQ(got.clock_period, want.clock_period);
}

/// Textbook STA straight off the Netlist and annotation (no flattened
/// arrays): arrivals in topo order, downstream delays in reverse.
StaResult naive_sta(const Netlist& nl, const DelayAnnotation& ann,
                    double margin) {
    const std::size_t n = nl.size();
    StaResult r;
    r.max_arrival.assign(n, 0.0);
    r.min_arrival.assign(n, 0.0);
    r.downstream.assign(n, 0.0);
    r.path_through.assign(n, 0.0);
    const auto order = nl.topo_order();
    for (const GateId id : order) {
        const Gate& g = nl.gate(id);
        if (g.type == CellType::Input || g.type == CellType::Dff) continue;
        Time hi = 0.0;
        Time lo = std::numeric_limits<Time>::max();
        for (std::uint32_t pin = 0; pin < g.fanin.size(); ++pin) {
            const PinDelay d = ann.arc(id, pin);
            hi = std::max(hi, r.max_arrival[g.fanin[pin]] +
                                  std::max(d.rise, d.fall));
            lo = std::min(lo, r.min_arrival[g.fanin[pin]] +
                                  std::min(d.rise, d.fall));
        }
        r.max_arrival[id] = hi;
        r.min_arrival[id] = lo == std::numeric_limits<Time>::max() ? 0.0 : lo;
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const Gate& g = nl.gate(*it);
        Time best = std::numeric_limits<Time>::lowest();
        bool observed = false;
        for (const GateId out : g.fanout) {
            const Gate& og = nl.gate(out);
            if (og.type == CellType::Output || og.type == CellType::Dff) {
                best = std::max(best, 0.0);
                observed = true;
                continue;
            }
            for (std::uint32_t pin = 0; pin < og.fanin.size(); ++pin) {
                if (og.fanin[pin] != *it) continue;
                const PinDelay d = ann.arc(out, pin);
                best = std::max(best,
                                std::max(d.rise, d.fall) + r.downstream[out]);
                observed = true;
            }
        }
        r.downstream[*it] = observed ? best : 0.0;
    }
    for (GateId id = 0; id < n; ++id) {
        r.path_through[id] = r.max_arrival[id] + r.downstream[id];
    }
    for (const ObservePoint& op : nl.observe_points()) {
        r.critical_path_length =
            std::max(r.critical_path_length, r.max_arrival[op.signal]);
    }
    r.clock_period = margin * r.critical_path_length;
    return r;
}

/// The from-scratch reference: transform the base, time it afresh.
StaResult reference_sta(const Netlist& nl, const DelayAnnotation& base,
                        const DelayDelta& delta, double margin = 1.05) {
    return StaEngine(nl, base.transformed(delta), margin).analyze();
}

/// Lane 0 of a BatchStaEngine over `base` after update(delta) must
/// reproduce the reference's max arrivals and critical path bit for
/// bit.
void expect_batch_lane_matches(BatchStaEngine& batch,
                               const DelayDelta& delta,
                               const StaResult& want) {
    BatchDelayDelta bd;
    bd.set(0, &delta);
    batch.update(bd);
    const Netlist& nl = batch.netlist();
    for (GateId id = 0; id < nl.size(); ++id) {
        EXPECT_EQ(batch.max_arrival(id, 0), want.max_arrival[id])
            << "gate " << id;
    }
    EXPECT_EQ(batch.critical_path_length(0), want.critical_path_length);
}

struct EngineFixture : ::testing::Test {
    Netlist nl = generate_circuit(
        GeneratorConfig{"engine_diff", 300, 24, 8, 8, 10, 0.55, 77});
    DelayAnnotation base = DelayAnnotation::with_variation(nl, 0.08, 5);
    std::vector<GateId> comb = [this] {
        std::vector<GateId> ids;
        for (GateId id = 0; id < nl.size(); ++id) {
            if (is_combinational(nl.gate(id).type)) ids.push_back(id);
        }
        return ids;
    }();
    /// Per-gate load factors that leave a batch lane at `base`.
    std::vector<double> unit_factors = std::vector<double>(nl.size(), 1.0);
};

TEST_F(EngineFixture, AnalyzeMatchesFullScopeFromScratch) {
    StaEngine engine(nl, base);
    expect_bitwise_equal(engine.analyze(), naive_sta(nl, base, 1.05));
    // A second pass over the same annotation is unchanged.
    expect_bitwise_equal(engine.analyze(), naive_sta(nl, base, 1.05));
}

TEST_F(EngineFixture, SparseDefectExtrasMatchFromScratch) {
    // Extras only (no scales): single-pin and all-pin defect arcs.
    BatchStaEngine batch(nl, base);  // lane 0 live, rest retired
    batch.load_lane(0, unit_factors);
    Prng rng = Prng::stream(11, 0xD1FFULL);
    for (int round = 0; round < 12; ++round) {
        DelayDelta delta;
        const int touches = 1 + round % 3;
        for (int k = 0; k < touches; ++k) {
            const GateId g =
                comb[static_cast<std::size_t>(rng.next_below(comb.size()))];
            const std::uint32_t fanin =
                static_cast<std::uint32_t>(nl.gate(g).fanin.size());
            const std::uint32_t pin =
                rng.next_below(2) == 0
                    ? DelayDelta::kAllPins
                    : static_cast<std::uint32_t>(rng.next_below(fanin));
            delta.add(g, pin, rng.uniform(0.5, 25.0));
        }
        expect_batch_lane_matches(batch, delta,
                                  reference_sta(nl, base, delta));
    }
}

TEST_F(EngineFixture, MixedScaleAndExtraOrderIsPreserved) {
    // A scale and an extra on the SAME gate: the contract applies scales
    // before extras, i.e. the extra is not multiplied.  The scales are
    // listed in ascending gate order, the shape BatchStaEngine takes.
    const GateId g = comb[comb.size() / 2];
    DelayDelta delta;
    delta.scale(comb.front(), 2.0);
    delta.scale(g, 1.4);
    delta.add(g, DelayDelta::kAllPins, 7.25);
    const DelayAnnotation degraded = base.transformed(delta);
    for (std::uint32_t pin = 0; pin < nl.gate(g).fanin.size(); ++pin) {
        EXPECT_EQ(degraded.arc(g, pin).rise,
                  base.arc(g, pin).rise * 1.4 + 7.25);
        EXPECT_EQ(degraded.arc(g, pin).fall,
                  base.arc(g, pin).fall * 1.4 + 7.25);
    }
    BatchStaEngine batch(nl, base);  // lane 0 live, rest retired
    batch.load_lane(0, unit_factors);
    expect_batch_lane_matches(batch, delta, reference_sta(nl, base, delta));
}

TEST_F(EngineFixture, DeltasAreAbsoluteNotCumulative) {
    // Gate dirty in update k but absent from update k+1 reverts to base.
    BatchStaEngine batch(nl, base);  // lane 0 live, rest retired
    batch.load_lane(0, unit_factors);
    const GateId a = comb[1];
    const GateId b = comb[comb.size() - 2];
    DelayDelta first;
    first.add(a, DelayDelta::kAllPins, 40.0);
    first.scale(b, 3.0);
    expect_batch_lane_matches(batch, first, reference_sta(nl, base, first));

    DelayDelta second;
    second.scale(b, 1.2);  // `a` is gone: must revert
    expect_batch_lane_matches(batch, second,
                              reference_sta(nl, base, second));

    DelayDelta empty;  // everything reverts to the plain base
    expect_batch_lane_matches(batch, empty, naive_sta(nl, base, 1.05));
}

TEST_F(EngineFixture, ArrivalsScopeMatchesArrivalFields) {
    DelayDelta delta;
    delta.scale(comb[0], 1.8);
    delta.add(comb[2], DelayDelta::kAllPins, 5.0);
    const DelayAnnotation degraded = base.transformed(delta);
    StaEngine full(nl, degraded, 1.05, StaEngine::Scope::Full);
    StaEngine arrivals(nl, degraded, 1.05, StaEngine::Scope::Arrivals);
    const StaResult& f = full.analyze();
    const StaResult& a = arrivals.analyze();
    for (GateId id = 0; id < nl.size(); ++id) {
        EXPECT_EQ(a.max_arrival[id], f.max_arrival[id]);
        EXPECT_EQ(a.min_arrival[id], f.min_arrival[id]);
        EXPECT_EQ(a.downstream[id], 0.0);
        EXPECT_EQ(a.path_through[id], 0.0);
    }
    EXPECT_EQ(a.critical_path_length, f.critical_path_length);
    EXPECT_EQ(a.clock_period, f.clock_period);
}

TEST_F(EngineFixture, TakeResultInvalidatesThenRecovers) {
    StaEngine engine(nl, base);
    engine.analyze();
    const StaResult owned = engine.take_result();
    EXPECT_FALSE(engine.valid());
    EXPECT_EQ(owned.max_arrival.size(), nl.size());
    // The next analyze() rebuilds the arenas from scratch.
    expect_bitwise_equal(engine.analyze(), owned);
    EXPECT_TRUE(engine.valid());
}

TEST_F(EngineFixture, MovedFromEngineIsInvalidAndTargetStaysLive) {
    StaEngine source(nl, base);
    const StaResult before = [&] {
        source.analyze();
        StaResult copy = source.result();
        return copy;
    }();

    // Move construction: the target owns the arenas and the cached
    // result; the source is left invalid (destroy/assign-only).
    StaEngine target(std::move(source));
    EXPECT_FALSE(source.valid());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(target.valid());
    expect_bitwise_equal(target.result(), before);

    // The target is fully functional: a fresh pass reproduces it.
    expect_bitwise_equal(target.analyze(), before);

    // Move assignment nulls the new source the same way, and a
    // moved-from engine can be assigned a live one again.
    StaEngine replacement(nl, base);
    replacement.analyze();
    source = std::move(replacement);
    EXPECT_FALSE(replacement.valid());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(source.valid());
    expect_bitwise_equal(source.result(), before);
    expect_bitwise_equal(source.analyze(), before);
}

TEST(StaEngineS27, ClockMarginFlowsThroughUpdates) {
    const Netlist nl = make_s27();
    const DelayAnnotation base = DelayAnnotation::nominal(nl);
    DelayDelta delta;
    for (GateId id = 0; id < nl.size(); ++id) {
        if (is_combinational(nl.gate(id).type)) delta.scale(id, 1.25);
    }
    const DelayAnnotation aged = base.transformed(delta);
    StaEngine engine(nl, aged, 1.6);
    const StaResult& got = engine.analyze();
    EXPECT_EQ(got.clock_period, 1.6 * got.critical_path_length);
    EXPECT_GT(got.critical_path_length,
              StaEngine(nl, base, 1.6).analyze().critical_path_length);
    expect_bitwise_equal(got, naive_sta(nl, aged, 1.6));
}

// --- LifetimeSimulator -----------------------------------------------

struct LifetimeDiffFixture : ::testing::Test {
    Netlist nl = make_mini_alu();
    DelayAnnotation base = DelayAnnotation::with_variation(nl, 0.05, 21);
    StaResult sta = StaEngine(nl, base, 1.6).analyze();
    MonitorPlacement placement = place_paper_monitors(nl, sta);
    AgingModel aging{0.4, 0.8, 10.0};

    MarginalDefect make_defect() const {
        // Put the defect on the critical-path gate so it is monitored.
        GateId worst = 0;
        for (GateId id = 0; id < nl.size(); ++id) {
            if (!is_combinational(nl.gate(id).type)) continue;
            if (sta.path_through[id] > sta.path_through[worst]) worst = id;
        }
        MarginalDefect d;
        d.site.gate = worst;
        d.site.pin = FaultSite::kOutputPin;
        d.delta0 = 1.5;
        d.growth_per_year = 0.9;
        d.delta_max = 60.0;
        return d;
    }
};

TEST_F(LifetimeDiffFixture, DegradationDeltaMatchesDegradedAnnotation) {
    LifetimeSimulator sim(nl, base, sta.clock_period, aging, 3);
    sim.add_defect(make_defect());
    const DelayDelta delta = sim.degradation_delta(5.0);
    const DelayAnnotation via_delta = base.transformed(delta);
    const DelayAnnotation via_sim = sim.degraded(5.0);
    for (GateId id = 0; id < nl.size(); ++id) {
        const auto fanin = nl.gate(id).fanin.size();
        for (std::uint32_t p = 0; p < fanin; ++p) {
            EXPECT_EQ(via_delta.arc(id, p).rise, via_sim.arc(id, p).rise);
            EXPECT_EQ(via_delta.arc(id, p).fall, via_sim.arc(id, p).fall);
        }
    }
}

}  // namespace
}  // namespace fastmon
