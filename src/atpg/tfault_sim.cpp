#include "atpg/tfault_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fastmon {

std::vector<TdfFault> enumerate_tdf_faults(const Netlist& netlist) {
    std::vector<TdfFault> faults;
    for (GateId id = 0; id < netlist.size(); ++id) {
        const Gate& g = netlist.gate(id);
        if (!is_combinational(g.type)) continue;
        for (bool rising : {true, false}) {
            faults.push_back(
                TdfFault{FaultSite{id, FaultSite::kOutputPin}, rising});
            for (std::uint32_t pin = 0;
                 pin < static_cast<std::uint32_t>(g.fanin.size()); ++pin) {
                faults.push_back(TdfFault{FaultSite{id, pin}, rising});
            }
        }
    }
    return faults;
}

TransitionFaultSim::TransitionFaultSim(const Netlist& netlist)
    : netlist_(&netlist),
      logic_(netlist),
      overlay_(netlist.size(), 0),
      stamp_(netlist.size(), 0),
      observed_(netlist.size(), 0) {
    for (const ObservePoint& op : netlist.observe_points()) {
        observed_[op.signal] = 1;
    }
}

TransitionFaultSim::Batch TransitionFaultSim::pack(
    std::span<const PatternPair> patterns, std::size_t first) const {
    assert(first < patterns.size());
    const std::size_t n_src = netlist_->comb_sources().size();
    Batch b;
    b.count = std::min<std::size_t>(64, patterns.size() - first);
    b.src1.assign(n_src, 0);
    b.src2.assign(n_src, 0);
    for (std::size_t lane = 0; lane < 64; ++lane) {
        const PatternPair& p =
            patterns[first + (lane < b.count ? lane : 0)];
        for (std::size_t s = 0; s < n_src; ++s) {
            if (p.v1[s] != 0) b.src1[s] |= 1ULL << lane;
            if (p.v2[s] != 0) b.src2[s] |= 1ULL << lane;
        }
    }
    return b;
}

TransitionFaultSim::BatchValues TransitionFaultSim::evaluate(
    const Batch& batch) const {
    return BatchValues{logic_.eval64(batch.src1), logic_.eval64(batch.src2)};
}

std::uint64_t TransitionFaultSim::detect_mask(const TdfFault& fault,
                                              const BatchValues& values) {
    const Netlist& nl = *netlist_;
    const std::span<const std::uint32_t> arc_offset = nl.arc_offsets();
    const std::span<const GateId> arc_driver = nl.arc_drivers();

    // Signal at the fault site under both vectors.
    const GateId site_signal = fault_site_signal(nl, fault.site);
    const std::uint64_t s1 = values.val1[site_signal];
    const std::uint64_t s2 = values.val2[site_signal];
    const std::uint64_t act = fault.slow_rising ? (~s1 & s2) : (s1 & ~s2);
    if (act == 0) return 0;

    // Faulty propagation of the stale value under v2: the site keeps v1
    // in activated lanes.
    if (++epoch_ == 0) {  // wrapped: every stamp is stale
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
    }
    changed_.clear();
    std::uint32_t horizon = 0;  // highest topological rank a change reaches
    auto set_faulty = [&](GateId id, std::uint64_t w) {
        stamp_[id] = epoch_;
        overlay_[id] = w;
        changed_.push_back(id);
        for (GateId out : nl.gate(id).fanout) {
            horizon = std::max(horizon, nl.topo_rank(out));
        }
    };

    std::uint64_t ins[8];
    auto eval_with_overlay = [&](GateId id,
                                 std::uint32_t faulty_pin,
                                 std::uint64_t faulty_word) -> std::uint64_t {
        const std::uint32_t first = arc_offset[id];
        const std::uint32_t arity = arc_offset[id + 1] - first;
        for (std::uint32_t p = 0; p < arity; ++p) {
            const GateId f = arc_driver[first + p];
            if (p == faulty_pin) {
                ins[p] = faulty_word;
            } else {
                ins[p] = stamp_[f] == epoch_ ? overlay_[f] : values.val2[f];
            }
        }
        const CellType type = nl.gate(id).type;
        if (type == CellType::Output) return ins[0];
        return eval_cell64(type, std::span<const std::uint64_t>(ins, arity));
    };

    const std::uint64_t faulty_site = s2 ^ act;  // v1 value in active lanes
    if (fault.site.pin == FaultSite::kOutputPin) {
        set_faulty(fault.site.gate, faulty_site);
    } else {
        const std::uint64_t w = eval_with_overlay(
            fault.site.gate, fault.site.pin, faulty_site);
        if (w == values.val2[fault.site.gate]) return 0;
        set_faulty(fault.site.gate, w);
    }

    // The cone lists combinational nodes and pads in topological order,
    // then register sinks, which are never evaluated.  Once a node lies
    // past the horizon, no later node needs evaluation.
    for (GateId id : nl.fanout_cone(fault.site.gate)) {
        if (id == fault.site.gate) continue;
        if (nl.topo_rank(id) > horizon) break;
        const std::uint32_t first = arc_offset[id];
        const std::span<const GateId> in =
            arc_driver.subspan(first, arc_offset[id + 1] - first);
        if (std::none_of(in.begin(), in.end(),
                         [this](GateId f) { return stamp_[f] == epoch_; })) {
            continue;
        }
        if (nl.gate(id).type == CellType::Dff) continue;  // register boundary
        const std::uint64_t w =
            eval_with_overlay(id, FaultSite::kOutputPin + 0, 0);
        if (w != values.val2[id]) set_faulty(id, w);
    }

    std::uint64_t detected = 0;
    for (GateId id : changed_) {
        if (observed_[id] != 0) detected |= overlay_[id] ^ values.val2[id];
    }
    return detected & act;
}

std::vector<std::size_t> fault_simulate_tdf(
    const Netlist& netlist, std::span<const TdfFault> faults,
    std::span<const PatternPair> patterns) {
    std::vector<std::size_t> first_detect(faults.size(), SIZE_MAX);
    if (patterns.empty()) return first_detect;
    TransitionFaultSim sim(netlist);
    for (std::size_t base = 0; base < patterns.size(); base += 64) {
        const auto batch = sim.pack(patterns, base);
        const auto values = sim.evaluate(batch);
        bool any_open = false;
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            if (first_detect[fi] != SIZE_MAX) continue;
            const std::uint64_t mask = sim.detect_mask(faults[fi], values);
            const std::uint64_t valid =
                batch.count == 64 ? ~0ULL : ((1ULL << batch.count) - 1);
            const std::uint64_t hit = mask & valid;
            if (hit != 0) {
                first_detect[fi] =
                    base + static_cast<std::size_t>(std::countr_zero(hit));
            } else {
                any_open = true;
            }
        }
        if (!any_open) break;
    }
    return first_detect;
}

}  // namespace fastmon
