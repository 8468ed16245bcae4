#include "sim/waveform.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fastmon {

Waveform Waveform::constant(bool value) {
    Waveform w;
    w.initial_ = value;
    return w;
}

Waveform Waveform::step(bool initial, Time t) {
    Waveform w;
    w.initial_ = initial;
    w.transitions_.push_back(t);
    return w;
}

Waveform Waveform::from_events(bool initial,
                               std::span<const std::pair<Time, bool>> events) {
    Waveform w;
    w.assign_events(initial, events);
    return w;
}

void Waveform::assign_events(bool initial,
                             std::span<const std::pair<Time, bool>> events) {
    initial_ = initial;
    transitions_.clear();
    bool value = initial;
    for (const auto& [t, v] : events) {
        if (v == value) continue;
        // A toggle landing at (or before) the previous one cancels it
        // (the later-scheduled value wins at equal times).
        if (!transitions_.empty() && t <= transitions_.back() + kTimeEps) {
            transitions_.pop_back();
        } else {
            transitions_.push_back(t);
        }
        value = v;
    }
}

bool Waveform::value_at(Time t) const {
    const auto it = std::upper_bound(transitions_.begin(), transitions_.end(),
                                     t + kTimeEps);
    const auto toggles = static_cast<std::size_t>(it - transitions_.begin());
    return (toggles % 2 == 0) ? initial_ : !initial_;
}

void Waveform::filter_pulses(Time min_width) {
    if (min_width <= 0.0 || transitions_.size() < 2) return;
    // transitions_[0, kept) is the stack of surviving toggles; it never
    // overtakes the read position, so the filter runs in place.
    std::size_t kept = 0;
    for (const Time t : transitions_) {
        if (kept != 0 && t - transitions_[kept - 1] < min_width - kTimeEps) {
            --kept;  // the pulse [back, t) is swallowed
        } else {
            transitions_[kept++] = t;
        }
    }
    transitions_.resize(kept);
}

Waveform Waveform::with_slowed_edges(bool rising, Time delta) const {
    Waveform w;
    slowed_edges_into(rising, delta, w);
    return w;
}

void Waveform::slowed_edges_into(bool rising, Time delta,
                                 Waveform& out) const {
    assert(&out != this);
    // Delay the affected edge direction; when a delayed edge is
    // overtaken by its successor, the pulse between them is swallowed
    // (a delay element cannot emit an end-of-pulse before the pulse
    // started).  Classic edge-cancellation stack: edges arrive in the
    // original order; an edge landing at or before the previous
    // surviving edge cancels it, removing the pulse pair.
    out.initial_ = initial_;
    out.transitions_.clear();
    bool value = initial_;
    for (Time t : transitions_) {
        value = !value;
        const Time shifted = value == rising ? t + delta : t;
        if (!out.transitions_.empty() &&
            shifted <= out.transitions_.back() + kTimeEps) {
            out.transitions_.pop_back();
        } else {
            out.transitions_.push_back(shifted);
        }
    }
}

Waveform Waveform::xor_of(const Waveform& a, const Waveform& b) {
    Waveform w;
    xor_into(a, b, w);
    return w;
}

void Waveform::xor_into(const Waveform& a, const Waveform& b, Waveform& out) {
    assert(&out != &a && &out != &b);
    // XOR toggles whenever either operand toggles; simultaneous toggles
    // cancel.
    out.initial_ = a.initial_ != b.initial_;
    out.transitions_.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.transitions_.size() || j < b.transitions_.size()) {
        Time t = 0.0;
        if (j == b.transitions_.size()) {
            t = a.transitions_[i++];
        } else if (i == a.transitions_.size()) {
            t = b.transitions_[j++];
        } else if (std::abs(a.transitions_[i] - b.transitions_[j]) <= kTimeEps) {
            // Simultaneous toggles in both operands: XOR unchanged.
            ++i;
            ++j;
            continue;
        } else if (a.transitions_[i] < b.transitions_[j]) {
            t = a.transitions_[i++];
        } else {
            t = b.transitions_[j++];
        }
        out.transitions_.push_back(t);
    }
}

IntervalSet Waveform::ones(Time horizon) const {
    IntervalSet s;
    ones_into(horizon, s);
    return s;
}

void Waveform::ones_into(Time horizon, IntervalSet& out) const {
    out.clear();
    bool value = initial_;
    Time start = value ? 0.0 : -1.0;
    for (Time t : transitions_) {
        if (t >= horizon) break;
        value = !value;
        if (value) {
            start = std::max(t, 0.0);
        } else if (start >= 0.0) {
            out.add(start, t);
            start = -1.0;
        }
    }
    if (value && start >= 0.0 && start < horizon) {
        out.add(start, horizon);
    }
}

}  // namespace fastmon
