// Benchmark-scale oracle of the detection engine: pass A and pass B on
// the generated s9234 at scale 1, pinned by hashes of every output.
// Any change to the waveform kernel, the fault simulation or the
// analyzer's accumulation moves one of these numbers; an optimization
// of that path must leave all of them as they are.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/detection_range.hpp"
#include "fault/fault.hpp"
#include "monitor/placement.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "timing/sta_engine.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

/// 64-bit FNV-1a, fed one 64-bit word at a time (little-endian bytes).
class Fnv1a {
public:
    void add(std::uint64_t word) {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (word >> (8 * b)) & 0xFF;
            h_ *= 1099511628211ULL;
        }
    }
    void add(Time t) { add(std::bit_cast<std::uint64_t>(t)); }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

void add_set(Fnv1a& h, const IntervalSet& s) {
    h.add(static_cast<std::uint64_t>(s.size()));
    for (const Interval& iv : s.intervals()) {
        h.add(iv.lo);
        h.add(iv.hi);
    }
}

std::uint64_t ranges_hash(std::span<const FaultRanges> ranges) {
    Fnv1a h;
    for (const FaultRanges& r : ranges) {
        add_set(h, r.ff);
        add_set(h, r.sr);
        h.add(static_cast<std::uint64_t>(r.active_patterns.size()));
        for (std::uint32_t p : r.active_patterns) h.add(std::uint64_t{p});
    }
    return h.value();
}

std::uint64_t table_hash(std::span<const DetectionEntry> entries) {
    Fnv1a h;
    for (const DetectionEntry& e : entries) {
        h.add(std::uint64_t{e.fault_index});
        h.add(std::uint64_t{e.pattern});
        h.add(std::uint64_t{e.config});
        h.add(std::uint64_t{e.period});
    }
    return h.value();
}

TEST(Detection, PinnedS9234RangesAndTable) {
    const CircuitProfile& profile = find_profile("s9234");
    const Netlist nl = generate_circuit(profile_config(profile, 1.0));
    const DelayAnnotation delays = DelayAnnotation::nominal(nl);
    const StaResult sta = StaEngine(nl, delays, 1.05).analyze();
    const MonitorPlacement placement = place_paper_monitors(nl, sta);
    const WaveSim wave_sim(nl, delays);

    Prng rng(9234);
    const std::size_t n_src = nl.comb_sources().size();
    std::vector<PatternPair> patterns(96);
    for (PatternPair& p : patterns) {
        p.v1.resize(n_src);
        p.v2.resize(n_src);
        for (std::size_t s = 0; s < n_src; ++s) {
            p.v1[s] = rng.chance(0.5) ? 1 : 0;
            p.v2[s] = rng.chance(0.5) ? 1 : 0;
        }
    }
    const FaultUniverse universe = FaultUniverse::generate(nl, delays, 1.2);
    std::vector<DelayFault> faults;
    for (FaultId id : universe.sample(600, 17)) {
        faults.push_back(universe.fault(id));
    }
    ASSERT_EQ(faults.size(), 600u);

    DetectionAnalysisConfig dac;
    dac.glitch_threshold = delays.glitch_threshold();
    dac.horizon = sta.clock_period * 1.02;
    const std::vector<Time> periods{sta.clock_period * 0.95,
                                    sta.clock_period * 0.8,
                                    sta.clock_period * 0.65};

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("num_threads=" + std::to_string(threads));
        dac.num_threads = threads;
        const DetectionAnalyzer analyzer(wave_sim, patterns,
                                         placement.monitored, dac);
        const std::vector<FaultRanges> ranges = analyzer.analyze(faults);
        const std::vector<DetectionEntry> table = analyzer.detection_table(
            faults, ranges, periods, placement.config_delays);
        const DetectionCounters c = analyzer.counters();
        EXPECT_EQ(ranges_hash(ranges), 15031679550486933848ULL);
        EXPECT_EQ(table.size(), 3854u);
        EXPECT_EQ(table_hash(table), 3514854490726834070ULL);
        EXPECT_EQ(c.gates_reevaluated, 362754u);
        EXPECT_EQ(c.pairs_simulated, 16639u);
        EXPECT_EQ(c.pairs_detected, 5127u);
    }
}

}  // namespace
}  // namespace fastmon
