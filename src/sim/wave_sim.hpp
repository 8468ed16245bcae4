// Timing-accurate full-waveform simulation of pattern pairs.
//
// For a test pattern pair (v1, v2) every combinational source carries a
// step waveform (value v1, toggling to v2 at the launch edge t = 0).
// Gates are evaluated in topological order; each gate maps its fanin
// waveforms to an output waveform using the annotated pin-to-pin
// rise/fall delays, followed by inertial pulse filtering.  This is the
// CPU equivalent of the GPU waveform simulator the paper uses [20].
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/logic_sim.hpp"
#include "sim/waveform.hpp"
#include "timing/delay_model.hpp"

namespace fastmon {

struct WaveSimConfig {
    /// Pulses narrower than this fraction of the gate's mean arc delay
    /// are swallowed at the gate output (inertial delay model).
    /// 0 disables gate-level filtering.
    double inertial_fraction = 0.4;
};

/// Caller-owned event buffers of WaveSim::eval_gate: one per thread,
/// reused across calls so a warm evaluation allocates nothing.
struct WaveEvalBuffers {
    struct InEvent {
        Time t;
        std::uint32_t pin;
    };
    std::vector<InEvent> in_events;
    std::vector<std::pair<Time, bool>> pending;  ///< (time, value-after)
    /// The caller's fanin pointer list; eval_gate does not touch it.
    std::vector<const Waveform*> fanin_waves;
};

class WaveSim {
public:
    WaveSim(const Netlist& netlist, const DelayAnnotation& delays,
            WaveSimConfig config = {});

    /// Waveforms of all nodes for the pattern pair (v1, v2); both
    /// vectors are indexed like Netlist::comb_sources().
    /// Output/Dff nodes mirror their fanin waveform (zero-delay pads).
    [[nodiscard]] std::vector<Waveform> simulate(
        std::span<const Bit> v1, std::span<const Bit> v2) const;

    /// simulate() into `waves`, reusing its waveforms' buffers (resized
    /// to netlist().size() on first use).
    void simulate(std::span<const Bit> v1, std::span<const Bit> v2,
                  std::vector<Waveform>& waves, WaveEvalBuffers& buf) const;

    /// Evaluates one gate from explicit fanin waveforms (one per pin;
    /// substituting a pin's waveform is how input-pin delay faults are
    /// injected).
    [[nodiscard]] Waveform eval_gate(
        GateId gate, std::span<const Waveform* const> fanin_waves) const;

    /// eval_gate() into `out`, with the event lists in `buf`.  `out`
    /// must not be one of the fanin waveforms.
    void eval_gate(GateId gate, std::span<const Waveform* const> fanin_waves,
                   Waveform& out, WaveEvalBuffers& buf) const;

    [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
    [[nodiscard]] const DelayAnnotation& delays() const { return *delays_; }
    [[nodiscard]] const WaveSimConfig& config() const { return config_; }

    /// The inertial threshold applied at the output of `gate`.
    [[nodiscard]] Time inertial_threshold(GateId gate) const {
        return threshold_[gate];
    }

private:
    const Netlist* netlist_;
    const DelayAnnotation* delays_;
    WaveSimConfig config_;
    std::vector<Time> threshold_;  ///< per gate, fixed at construction
};

}  // namespace fastmon
