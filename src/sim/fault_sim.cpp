#include "sim/fault_sim.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace fastmon {

GateId fault_site_signal(const Netlist& netlist, const FaultSite& site) {
    if (site.pin == FaultSite::kOutputPin) return site.gate;
    return netlist.arc_drivers()[netlist.arc_offsets()[site.gate] + site.pin];
}

void FaultSimScratch::begin_epoch(std::size_t num_gates) {
    if (overlay_.size() != num_gates) {
        overlay_.assign(num_gates, Waveform());
        stamp_.assign(num_gates, 0);
        queued_.assign(num_gates, 0);
        epoch_ = 0;
    }
    if (++epoch_ == 0) {  // epoch counter wrapped: stamps are stale
        std::fill(stamp_.begin(), stamp_.end(), 0);
        std::fill(queued_.begin(), queued_.end(), 0);
        epoch_ = 1;
    }
    heap_.clear();
    changed_.clear();
    num_diffs_ = 0;
}

FaultSim::FaultSim(const WaveSim& wave_sim) : wave_sim_(&wave_sim) {
    const Netlist& nl = wave_sim.netlist();
    const auto ops = nl.observe_points();
    observe_offset_.assign(nl.size() + 1, 0);
    for (const ObservePoint& op : ops) ++observe_offset_[op.signal + 1];
    for (std::size_t g = 0; g < nl.size(); ++g) {
        observe_offset_[g + 1] += observe_offset_[g];
    }
    observe_.resize(ops.size());
    std::vector<std::uint32_t> fill(observe_offset_.begin(),
                                    observe_offset_.end() - 1);
    for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
        observe_[fill[ops[oi].signal]++] = oi;
    }
}

bool FaultSim::activated(const DelayFault& fault,
                         std::span<const Waveform> good) const {
    const Waveform& w = good[fault_site_signal(wave_sim_->netlist(),
                                               fault.site)];
    // A slow-to-rise fault needs a rising edge at the site (and vice
    // versa).  Walk the toggle parity to find one.
    bool value = w.initial();
    for (Time t : w.transitions()) {
        (void)t;
        value = !value;
        if (value == fault.slow_rising) return true;
    }
    return false;
}

std::vector<ObserveDiff> FaultSim::simulate(
    const DelayFault& fault, std::span<const Waveform> good) const {
    FaultSimScratch scratch;
    const std::span<const ObserveDiff> diffs =
        simulate(fault, good, scratch);
    return {diffs.begin(), diffs.end()};
}

void FaultSim::commit(GateId id, const Waveform& good_wave,
                      FaultSimScratch& scratch) const {
    if (scratch.wave_ == good_wave) return;
    std::swap(scratch.overlay_[id], scratch.wave_);
    scratch.stamp_[id] = scratch.epoch_;
    scratch.changed_.push_back(id);
    const Netlist& nl = wave_sim_->netlist();
    for (GateId f : nl.gate(id).fanout) {
        // Output/Dff sinks only mirror their fanin: nothing to evaluate.
        if (!is_combinational(nl.gate(f).type) ||
            scratch.queued_[f] == scratch.epoch_) {
            continue;
        }
        scratch.queued_[f] = scratch.epoch_;
        scratch.heap_.emplace_back(nl.topo_rank(f), f);
        std::push_heap(scratch.heap_.begin(), scratch.heap_.end(),
                       std::greater<>());
    }
}

std::span<const ObserveDiff> FaultSim::simulate(
    const DelayFault& fault, std::span<const Waveform> good,
    FaultSimScratch& scratch) const {
    const Netlist& nl = wave_sim_->netlist();
    assert(good.size() == nl.size());
    const auto offsets = nl.arc_offsets();
    const auto drivers = nl.arc_drivers();

    // Sparse faulty-waveform overlay: only gates that differ from the
    // fault-free simulation are stamped with the current epoch.
    scratch.begin_epoch(nl.size());
    std::vector<const Waveform*>& fanin_waves = scratch.eval_.fanin_waves;

    const GateId site = fault.site.gate;
    if (fault.site.pin == FaultSite::kOutputPin) {
        // Output fault: retard the slow edges of the gate's own output
        // waveform.
        good[site].slowed_edges_into(fault.slow_rising, fault.delta,
                                     scratch.wave_);
    } else {
        // Input-pin fault: the gate sees a retarded version of the
        // driving waveform on that one pin.
        const std::uint32_t base = offsets[site];
        good[drivers[base + fault.site.pin]].slowed_edges_into(
            fault.slow_rising, fault.delta, scratch.pin_wave_);
        fanin_waves.clear();
        for (std::uint32_t a = base; a < offsets[site + 1]; ++a) {
            fanin_waves.push_back(a - base == fault.site.pin
                                      ? &scratch.pin_wave_
                                      : &good[drivers[a]]);
        }
        wave_sim_->eval_gate(site, fanin_waves, scratch.wave_,
                             scratch.eval_);
        ++scratch.gates_evaluated_;
    }
    commit(site, good[site], scratch);

    // Event-driven propagation in topological order: every queued gate
    // has a fanin whose faulty waveform differs from the fault-free one.
    auto& heap = scratch.heap_;
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const GateId id = heap.back().second;
        heap.pop_back();
        fanin_waves.clear();
        for (std::uint32_t a = offsets[id]; a < offsets[id + 1]; ++a) {
            const GateId f = drivers[a];
            fanin_waves.push_back(scratch.has(f) ? &scratch.overlay_[f]
                                                 : &good[f]);
        }
        wave_sim_->eval_gate(id, fanin_waves, scratch.wave_, scratch.eval_);
        ++scratch.gates_evaluated_;
        commit(id, good[id], scratch);
    }

    // Differences at the observation points the changed gates drive.
    auto& observes = scratch.observes_;
    observes.clear();
    for (GateId g : scratch.changed_) {
        observes.insert(observes.end(),
                        observe_.begin() + observe_offset_[g],
                        observe_.begin() + observe_offset_[g + 1]);
    }
    std::sort(observes.begin(), observes.end());
    const auto ops = nl.observe_points();
    for (std::uint32_t oi : observes) {
        if (scratch.num_diffs_ == scratch.diffs_.size()) {
            scratch.diffs_.emplace_back();
        }
        ObserveDiff& od = scratch.diffs_[scratch.num_diffs_];
        const GateId sig = ops[oi].signal;
        Waveform::xor_into(good[sig], scratch.overlay_[sig], od.diff);
        if (!od.diff.is_constant() || od.diff.initial()) {
            od.observe_index = oi;
            ++scratch.num_diffs_;
        }
    }
    return {scratch.diffs_.data(), scratch.num_diffs_};
}

}  // namespace fastmon
