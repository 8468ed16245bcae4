// Timing-accurate small delay fault simulation.
//
// For a fault (site, transition direction, size delta) and a pattern
// pair, propagates the fault effect from the site against the
// fault-free waveforms and yields, per observation point, the XOR of
// fault-free and faulty waveforms — the raw material of detection
// ranges (Sec. III-B).
//
// Hot-path plumbing (the engine runs one simulate() per activated
// (fault, pattern) pair, hundreds of thousands on the larger benches):
//   * propagation is event-driven: a gate is evaluated only when one of
//     its fanin waveforms differs from the fault-free one, in
//     topological-rank order through a min-heap with an epoch-stamped
//     in-queue flag, and only its combinational fanouts are queued when
//     its own waveform differs.  Nothing visits the rest of the cone.
//   * FaultSimScratch holds the faulty-waveform overlay as an
//     epoch-stamped dense array indexed by GateId: membership tests
//     are one load, and a new simulation "clears" the overlay by
//     bumping the epoch instead of deallocating.  Every waveform,
//     event list and difference buffer in it is reused, so a warm
//     scratch makes a simulation allocation-free.  One scratch per
//     thread.
//   * observation differences come from the changed gates through a
//     gate -> observe-index table, not from a scan of every point.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/wave_sim.hpp"

namespace fastmon {

/// Location of a small delay fault: a pin of a combinational gate.
/// pin == kOutputPin places the fault at the gate output; otherwise at
/// input pin `pin`.
struct FaultSite {
    static constexpr std::uint32_t kOutputPin = 0xFFFFFFFF;

    GateId gate = kNoGate;
    std::uint32_t pin = kOutputPin;

    friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

/// A small delay fault phi = (site, direction, delta): transitions of
/// the given direction at the site are retarded by delta (Sec. II-A).
struct DelayFault {
    FaultSite site;
    bool slow_rising = true;  ///< true: slow-to-rise; false: slow-to-fall
    Time delta = 0.0;
};

/// Faulty/fault-free difference at one observation point.
struct ObserveDiff {
    std::uint32_t observe_index = 0;  ///< index into Netlist::observe_points()
    Waveform diff;                    ///< XOR(fault-free, faulty) at op.signal
};

/// Gate whose output waveform carries the fault effect of `site`:
/// the site gate itself for output faults, the driving fanin for
/// input-pin faults.
[[nodiscard]] GateId fault_site_signal(const Netlist& netlist,
                                       const FaultSite& site);

/// Per-thread scratch state of the fault-simulation hot path: the dense
/// epoch-stamped faulty-waveform overlay, the propagation queue and
/// every buffer a simulation writes.  Not thread-safe; use one instance
/// per worker.
class FaultSimScratch {
public:
    FaultSimScratch() = default;

    /// Gates the simulator re-evaluated through this scratch (cheap
    /// perf counter, monotone across calls).
    [[nodiscard]] std::uint64_t gates_evaluated() const {
        return gates_evaluated_;
    }

private:
    friend class FaultSim;

    void begin_epoch(std::size_t num_gates);
    [[nodiscard]] bool has(GateId id) const {
        return stamp_[id] == epoch_;
    }

    std::vector<Waveform> overlay_;
    std::vector<std::uint32_t> stamp_;   ///< == epoch_: overlay_ entry live
    std::vector<std::uint32_t> queued_;  ///< == epoch_: gate is in heap_
    std::uint32_t epoch_ = 0;
    /// Pending gates as (topological rank, gate), a min-heap on rank.
    std::vector<std::pair<std::uint32_t, GateId>> heap_;
    std::vector<GateId> changed_;         ///< overlay gates, in put order
    std::vector<std::uint32_t> observes_; ///< observe indices of changed_
    Waveform wave_;                       ///< evaluation target
    Waveform pin_wave_;                   ///< slowed input-pin waveform
    WaveEvalBuffers eval_;
    std::vector<ObserveDiff> diffs_;      ///< [0, num_diffs_) valid
    std::size_t num_diffs_ = 0;
    std::uint64_t gates_evaluated_ = 0;
};

class FaultSim {
public:
    explicit FaultSim(const WaveSim& wave_sim);

    /// Re-simulates `fault` against the fault-free waveforms `good`
    /// (as produced by WaveSim::simulate for the same pattern pair).
    /// Returns the non-empty difference waveforms per observation
    /// point, in observe-index order.
    [[nodiscard]] std::vector<ObserveDiff> simulate(
        const DelayFault& fault, std::span<const Waveform> good) const;

    /// Hot-path variant: identical result, state and result kept in
    /// `scratch`.  The view is valid until the next call on `scratch`.
    [[nodiscard]] std::span<const ObserveDiff> simulate(
        const DelayFault& fault, std::span<const Waveform> good,
        FaultSimScratch& scratch) const;

    /// Cheap necessary condition for fault activation: the signal at the
    /// fault site has at least one transition in the slow direction.
    [[nodiscard]] bool activated(const DelayFault& fault,
                                 std::span<const Waveform> good) const;

private:
    /// Records `w` (in scratch.wave_) as gate `id`'s faulty waveform when
    /// it differs from `good_wave`, and queues the gate's fanouts.
    void commit(GateId id, const Waveform& good_wave,
                FaultSimScratch& scratch) const;

    const WaveSim* wave_sim_;
    /// Observe indices driven by each gate, flat: [observe_offset_[g],
    /// observe_offset_[g + 1]) of observe_.
    std::vector<std::uint32_t> observe_offset_;
    std::vector<std::uint32_t> observe_;
};

}  // namespace fastmon
