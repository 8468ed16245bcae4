#include "sim/wave_sim.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace fastmon {

WaveSim::WaveSim(const Netlist& netlist, const DelayAnnotation& delays,
                 WaveSimConfig config)
    : netlist_(&netlist), delays_(&delays), config_(config) {
    if (!netlist.finalized()) {
        throw std::logic_error("WaveSim requires a finalized netlist");
    }
    // Inertial threshold: a fraction of the gate's mean arc delay.
    const auto offsets = netlist.arc_offsets();
    threshold_.assign(netlist.size(), 0.0);
    if (config_.inertial_fraction <= 0.0) return;
    for (GateId id = 0; id < netlist.size(); ++id) {
        const std::uint32_t arity = offsets[id + 1] - offsets[id];
        if (!is_combinational(netlist.gate(id).type) || arity == 0) continue;
        Time mean = 0.0;
        for (std::uint32_t pin = 0; pin < arity; ++pin) {
            const PinDelay d = delays.arc(id, pin);
            mean += 0.5 * (d.rise + d.fall);
        }
        mean /= static_cast<Time>(arity);
        threshold_[id] = config_.inertial_fraction * mean;
    }
}

Waveform WaveSim::eval_gate(
    GateId gate, std::span<const Waveform* const> fanin_waves) const {
    Waveform out;
    WaveEvalBuffers buf;
    eval_gate(gate, fanin_waves, out, buf);
    return out;
}

void WaveSim::eval_gate(GateId gate,
                        std::span<const Waveform* const> fanin_waves,
                        Waveform& out, WaveEvalBuffers& buf) const {
    const CellType type = netlist_->gate(gate).type;
    const auto arity = static_cast<std::uint32_t>(fanin_waves.size());
    assert(arity == netlist_->arc_offsets()[gate + 1] -
                        netlist_->arc_offsets()[gate]);

    if (!is_combinational(type)) {
        // Output pads and DFF D pins observe their fanin directly.
        out = *fanin_waves[0];
        return;
    }

    // Gather all input events: (input time, pin).
    auto& in_events = buf.in_events;
    in_events.clear();
    for (std::uint32_t pin = 0; pin < arity; ++pin) {
        for (Time t : fanin_waves[pin]->transitions()) {
            in_events.push_back(WaveEvalBuffers::InEvent{t, pin});
        }
    }
    std::sort(in_events.begin(), in_events.end(),
              [](const WaveEvalBuffers::InEvent& a,
                 const WaveEvalBuffers::InEvent& b) { return a.t < b.t; });

    // Walk input events in time order, tracking the instantaneous input
    // state; every change of the output function value produces an
    // output event delayed by the causing pin's arc.
    bool state[8];
    for (std::uint32_t pin = 0; pin < arity; ++pin) {
        state[pin] = fanin_waves[pin]->initial();
    }
    bool out_value = eval_cell(type, std::span<const bool>(state, arity));
    const bool out_initial = out_value;

    // Preemptive transition scheduling: an output event computed from a
    // later input state supersedes any pending output event at an equal
    // or later time (unequal pin delays can schedule out of order; the
    // newest computation of the output value wins).
    auto& pending = buf.pending;
    pending.clear();
    auto scheduled_value = [&pending, out_initial] {
        return pending.empty() ? out_initial : pending.back().second;
    };
    std::size_t i = 0;
    while (i < in_events.size()) {
        // Group input events within the comparison tolerance.
        const Time t = in_events[i].t;
        Time min_delay_rise = std::numeric_limits<Time>::max();
        Time min_delay_fall = std::numeric_limits<Time>::max();
        while (i < in_events.size() && in_events[i].t <= t + kTimeEps) {
            const std::uint32_t pin = in_events[i].pin;
            state[pin] = !state[pin];
            const PinDelay d = delays_->arc(gate, pin);
            min_delay_rise = std::min(min_delay_rise, d.rise);
            min_delay_fall = std::min(min_delay_fall, d.fall);
            ++i;
        }
        const bool v = eval_cell(type, std::span<const bool>(state, arity));
        if (v == out_value) continue;
        out_value = v;
        const Time when = t + (v ? min_delay_rise : min_delay_fall);
        while (!pending.empty() && pending.back().first >= when - kTimeEps) {
            pending.pop_back();
        }
        if (v != scheduled_value()) pending.emplace_back(when, v);
    }

    out.assign_events(out_initial, pending);
    out.filter_pulses(threshold_[gate]);
}

std::vector<Waveform> WaveSim::simulate(std::span<const Bit> v1,
                                        std::span<const Bit> v2) const {
    std::vector<Waveform> waves;
    WaveEvalBuffers buf;
    simulate(v1, v2, waves, buf);
    return waves;
}

void WaveSim::simulate(std::span<const Bit> v1, std::span<const Bit> v2,
                       std::vector<Waveform>& waves,
                       WaveEvalBuffers& buf) const {
    const Netlist& nl = *netlist_;
    assert(v1.size() == nl.comb_sources().size());
    assert(v2.size() == v1.size());

    // topo_order() covers every node, so each slot is overwritten.
    waves.resize(nl.size());
    const auto offsets = nl.arc_offsets();
    const auto drivers = nl.arc_drivers();
    std::vector<const Waveform*>& fanin_waves = buf.fanin_waves;
    for (GateId id : nl.topo_order()) {
        const std::uint32_t src = nl.source_index(id);
        if (src != std::numeric_limits<std::uint32_t>::max()) {
            waves[id].reset(v1[src] != 0);
            if (v1[src] != v2[src]) waves[id].toggle_at(0.0);
            continue;
        }
        fanin_waves.clear();
        for (std::uint32_t a = offsets[id]; a < offsets[id + 1]; ++a) {
            fanin_waves.push_back(&waves[drivers[a]]);
        }
        eval_gate(id, fanin_waves, waves[id], buf);
    }
}

}  // namespace fastmon
