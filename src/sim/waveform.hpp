// Signal waveforms for timing-accurate simulation.
//
// A Waveform is an initial logic value plus a strictly increasing list
// of toggle times — the representation used by waveform-based delay
// fault simulators such as the GPU engine the paper builds on [20].
// Detection ranges fall out of waveform algebra: XOR the fault-free and
// faulty output waveforms and take the regions where the XOR is 1
// (Sec. III-B).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "util/interval.hpp"

namespace fastmon {

class Waveform {
public:
    /// Constant signal.
    static Waveform constant(bool value);

    /// Signal with initial value `initial` toggling once at time t.
    static Waveform step(bool initial, Time t);

    /// Builds a waveform from (time, value-after-event) pairs sorted by
    /// time (ties allowed; later entries win).  Events that do not change
    /// the value are dropped.
    static Waveform from_events(bool initial,
                                std::span<const std::pair<Time, bool>> events);

    /// In place: becomes constant(value), keeping the buffer.
    void reset(bool value) {
        initial_ = value;
        transitions_.clear();
    }

    /// Appends a toggle at t.  Precondition: t lies after the last
    /// toggle by more than kTimeEps.
    void toggle_at(Time t) { transitions_.push_back(t); }

    /// In-place from_events: replaces this waveform, reusing its buffer.
    void assign_events(bool initial,
                       std::span<const std::pair<Time, bool>> events);

    [[nodiscard]] bool initial() const { return initial_; }
    [[nodiscard]] bool final() const {
        return (transitions_.size() % 2 == 0) == initial_;
    }

    /// Value at time t; a transition at exactly t is already visible.
    [[nodiscard]] bool value_at(Time t) const;

    [[nodiscard]] std::size_t num_transitions() const { return transitions_.size(); }
    [[nodiscard]] std::span<const Time> transitions() const { return transitions_; }
    [[nodiscard]] bool is_constant() const { return transitions_.empty(); }

    /// Time of the last transition (0 if constant).
    [[nodiscard]] Time settle_time() const {
        return transitions_.empty() ? 0.0 : transitions_.back();
    }

    /// Inertial pulse filtering: repeatedly cancels adjacent transition
    /// pairs closer than min_width, modelling pulses swallowed by the
    /// gate's output stage.
    void filter_pulses(Time min_width);

    /// Shifts every transition of the given direction (rising if
    /// `rising`) right by delta, then renormalizes — the waveform-level
    /// manifestation of a slow-to-rise / slow-to-fall small delay fault
    /// of size delta at this signal.
    [[nodiscard]] Waveform with_slowed_edges(bool rising, Time delta) const;

    /// with_slowed_edges into `out` (not *this), reusing its buffer.
    void slowed_edges_into(bool rising, Time delta, Waveform& out) const;

    /// Pointwise XOR of two waveforms.
    static Waveform xor_of(const Waveform& a, const Waveform& b);

    /// xor_of into `out` (neither operand), reusing its buffer.
    static void xor_into(const Waveform& a, const Waveform& b, Waveform& out);

    /// Regions where the waveform is 1, clipped to [0, horizon).
    [[nodiscard]] IntervalSet ones(Time horizon) const;

    /// ones() into `out`, reusing its buffer.
    void ones_into(Time horizon, IntervalSet& out) const;

    friend bool operator==(const Waveform& a, const Waveform& b) = default;

private:
    bool initial_ = false;
    std::vector<Time> transitions_;
};

}  // namespace fastmon
