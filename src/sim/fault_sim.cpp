#include "sim/fault_sim.hpp"

#include <cassert>

namespace fastmon {

GateId fault_site_signal(const Netlist& netlist, const FaultSite& site) {
    if (site.pin == FaultSite::kOutputPin) return site.gate;
    return netlist.gate(site.gate).fanin[site.pin];
}

void FaultSimScratch::begin_epoch(std::size_t num_gates) {
    if (overlay_.size() != num_gates) {
        overlay_.assign(num_gates, Waveform());
        stamp_.assign(num_gates, 0);
        epoch_ = 0;
    }
    if (++epoch_ == 0) {  // epoch counter wrapped: stamps are stale
        stamp_.assign(num_gates, 0);
        epoch_ = 1;
    }
}

FaultSim::FaultSim(const WaveSim& wave_sim) : wave_sim_(&wave_sim) {}

const Waveform& FaultSim::site_signal(const FaultSite& site,
                                      std::span<const Waveform> good) const {
    return good[fault_site_signal(wave_sim_->netlist(), site)];
}

bool FaultSim::activated(const DelayFault& fault,
                         std::span<const Waveform> good) const {
    const Waveform& w = site_signal(fault.site, good);
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
    return simulate(fault, good, scratch);
}

std::vector<ObserveDiff> FaultSim::simulate(
    const DelayFault& fault, std::span<const Waveform> good,
    FaultSimScratch& scratch) const {
    const Netlist& nl = wave_sim_->netlist();
    assert(good.size() == nl.size());

    // Sparse faulty-waveform overlay: only gates that differ from the
    // fault-free simulation are stamped with the current epoch.
    scratch.begin_epoch(nl.size());

    const GateId site_gate = fault.site.gate;
    std::vector<const Waveform*>& fanin_waves = scratch.fanin_waves_;
    for (GateId id : nl.fanout_cone(site_gate)) {
        const Gate& g = nl.gate(id);

        if (id == site_gate) {
            Waveform w;
            if (fault.site.pin == FaultSite::kOutputPin) {
                // Output fault: retard the slow edges of the gate's own
                // output waveform.
                w = good[id].with_slowed_edges(fault.slow_rising, fault.delta);
            } else {
                // Input-pin fault: the gate sees a retarded version of
                // the driving waveform on that one pin.
                const Waveform pin_wave =
                    good[g.fanin[fault.site.pin]].with_slowed_edges(
                        fault.slow_rising, fault.delta);
                fanin_waves.clear();
                for (std::uint32_t p = 0; p < g.fanin.size(); ++p) {
                    fanin_waves.push_back(p == fault.site.pin
                                              ? &pin_wave
                                              : &good[g.fanin[p]]);
                }
                w = wave_sim_->eval_gate(id, fanin_waves);
                ++scratch.gates_evaluated_;
            }
            if (!(w == good[id])) scratch.put(id) = std::move(w);
            continue;
        }

        // Re-evaluate only if some fanin waveform changed.
        bool any_faulty_input = false;
        for (GateId f : g.fanin) {
            if (scratch.has(f)) {
                any_faulty_input = true;
                break;
            }
        }
        if (!any_faulty_input) continue;

        if (!is_combinational(g.type)) {
            // Output/Dff sinks mirror their fanin; record the difference
            // implicitly via the driving gate (handled below).
            continue;
        }

        fanin_waves.clear();
        for (GateId f : g.fanin) {
            fanin_waves.push_back(scratch.has(f) ? &scratch.overlay_[f]
                                                 : &good[f]);
        }
        Waveform w = wave_sim_->eval_gate(id, fanin_waves);
        ++scratch.gates_evaluated_;
        if (!(w == good[id])) scratch.put(id) = std::move(w);
    }

    // Collect differences at observation points.
    std::vector<ObserveDiff> diffs;
    const auto ops = nl.observe_points();
    for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
        const GateId sig = ops[oi].signal;
        if (!scratch.has(sig)) continue;
        Waveform diff = Waveform::xor_of(good[sig], scratch.overlay_[sig]);
        if (!diff.is_constant() || diff.initial()) {
            diffs.push_back(ObserveDiff{oi, std::move(diff)});
        }
    }
    return diffs;
}

}  // namespace fastmon
