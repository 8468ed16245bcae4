#include "timing/sta_engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "util/cancel.hpp"

namespace fastmon {

namespace {

// Arrival times admit no partial result, so a cancelled pass throws
// CancelledError; the flow records the phase as skipped.  Polling at a
// stride keeps even the relaxed load off the per-gate path.
constexpr std::size_t kCancelStride = 4096;

}  // namespace

StaEngine::StaEngine(const Netlist& netlist, const DelayAnnotation& base,
                     double clock_margin, Scope scope)
    : netlist_(&netlist), margin_(clock_margin), scope_(scope) {
    assert(netlist.finalized());
    assert(base.num_gates() == netlist.size());
    const auto offset = netlist.arc_offsets();
    arc_max_.resize(netlist.arc_drivers().size());
    arc_min_.resize(netlist.arc_drivers().size());
    for (GateId id = 0; id < netlist.size(); ++id) {
        for (std::uint32_t i = offset[id]; i < offset[id + 1]; ++i) {
            const PinDelay d = base.arc(id, i - offset[id]);
            arc_max_[i] = std::max(d.rise, d.fall);
            arc_min_[i] = std::min(d.rise, d.fall);
        }
    }
}

StaEngine::StaEngine(StaEngine&& other) noexcept
    : netlist_(std::exchange(other.netlist_, nullptr)),
      margin_(other.margin_),
      scope_(other.scope_),
      arc_max_(std::move(other.arc_max_)),
      arc_min_(std::move(other.arc_min_)),
      result_(std::move(other.result_)),
      valid_(std::exchange(other.valid_, false)),
      poll_counter_(other.poll_counter_) {}

StaEngine& StaEngine::operator=(StaEngine&& other) noexcept {
    if (this == &other) return *this;
    netlist_ = std::exchange(other.netlist_, nullptr);
    margin_ = other.margin_;
    scope_ = other.scope_;
    arc_max_ = std::move(other.arc_max_);
    arc_min_ = std::move(other.arc_min_);
    result_ = std::move(other.result_);
    valid_ = std::exchange(other.valid_, false);
    poll_counter_ = other.poll_counter_;
    return *this;
}

void StaEngine::poll_cancel() {
    if (++poll_counter_ % kCancelStride == 0) {
        CancelToken::global().throw_if_cancelled();
    }
}

void StaEngine::forward() {
    const std::size_t n = netlist_->size();
    // resize, not assign: the loop writes every entry.
    result_.max_arrival.resize(n);
    result_.min_arrival.resize(n);
    Time* const arr_max = result_.max_arrival.data();
    Time* const arr_min = result_.min_arrival.data();
    const Time* const dly_max = arc_max_.data();
    const Time* const dly_min = arc_min_.data();
    const GateId* const fanin = netlist_->arc_drivers().data();
    const std::uint32_t* const offset = netlist_->arc_offsets().data();
    const auto order = netlist_->topo_order();
    // Cancellation poll batched per pass (the tight loop stays pure);
    // the amortized cadence matches the per-node stride.
    poll_counter_ += order.size();
    if (poll_counter_ >= kCancelStride) {
        poll_counter_ = 0;
        CancelToken::global().throw_if_cancelled();
    }
    // Launch edge: the sources (the topo-order prefix) switch at t = 0.
    const std::size_t num_sources = netlist_->comb_sources().size();
    for (std::size_t k = 0; k < num_sources; ++k) {
        arr_max[order[k]] = 0.0;
        arr_min[order[k]] = 0.0;
    }
    for (std::size_t k = num_sources; k < order.size(); ++k) {
        const GateId id = order[k];
        Time amax = 0.0;
        Time amin = std::numeric_limits<Time>::max();
        const std::uint32_t start = offset[id];
        const std::uint32_t end = offset[id + 1];
        for (std::uint32_t i = start; i < end; ++i) {
            const GateId f = fanin[i];
            amax = std::max(amax, arr_max[f] + dly_max[i]);
            amin = std::min(amin, arr_min[f] + dly_min[i]);
        }
        arr_max[id] = amax;
        arr_min[id] = amin == std::numeric_limits<Time>::max() ? 0.0 : amin;
    }
}

void StaEngine::backward() {
    const std::size_t n = netlist_->size();
    result_.downstream.resize(n);
    const auto order = netlist_->topo_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        poll_cancel();
        const GateId id = *it;
        const Gate& g = netlist_->gate(id);
        Time best = std::numeric_limits<Time>::lowest();
        bool observed = false;
        for (GateId out : g.fanout) {
            const Gate& og = netlist_->gate(out);
            if (og.type == CellType::Output || og.type == CellType::Dff) {
                best = std::max(best, 0.0);
                observed = true;
                continue;
            }
            // Which pin of `out` does `id` drive?  (A gate may appear on
            // several pins; take the slowest arc.)
            const std::uint32_t start = netlist_->arc_offsets()[out];
            for (std::uint32_t pin = 0; pin < og.fanin.size(); ++pin) {
                if (og.fanin[pin] != id) continue;
                best = std::max(best,
                                arc_max_[start + pin] + result_.downstream[out]);
                observed = true;
            }
        }
        result_.downstream[id] = observed ? best : 0.0;
    }
    result_.path_through.resize(n);
    for (GateId id = 0; id < n; ++id) {
        result_.path_through[id] =
            result_.max_arrival[id] + result_.downstream[id];
    }
}

const StaResult& StaEngine::analyze() {
    valid_ = false;
    poll_counter_ = 0;
    forward();
    if (scope_ == Scope::Full) {
        backward();
    } else {
        result_.downstream.assign(netlist_->size(), 0.0);
        result_.path_through.assign(netlist_->size(), 0.0);
    }
    Time cpl = 0.0;
    for (const ObservePoint& op : netlist_->observe_points()) {
        cpl = std::max(cpl, result_.max_arrival[op.signal]);
    }
    result_.critical_path_length = cpl;
    result_.clock_period = margin_ * cpl;
    valid_ = true;
    return result_;
}

StaResult StaEngine::take_result() {
    StaResult out = std::move(result_);
    result_ = StaResult{};
    valid_ = false;
    return out;
}

}  // namespace fastmon
