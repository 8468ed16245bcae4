#include "timing/batch_sta_engine.hpp"

#include <algorithm>

#include "util/cancel.hpp"

namespace fastmon {

namespace {

constexpr std::size_t kCancelStride = 4096;

}  // namespace

BatchStaEngine::BatchStaEngine(const Netlist& netlist,
                               const DelayAnnotation& base)
    : netlist_(&netlist) {
    assert(netlist.finalized());
    const auto offset = netlist.arc_offsets();
    const std::size_t num_arcs = netlist.arc_drivers().size();
    base_max_.resize(num_arcs);
    for (GateId id = 0; id < netlist.size(); ++id) {
        for (std::uint32_t i = offset[id]; i < offset[id + 1]; ++i) {
            const PinDelay d = base.arc(id, i - offset[id]);
            base_max_[i] = std::max(d.rise, d.fall);
        }
    }
    lane_base_max_.resize(num_arcs * kBatchWidth);
    cur_max_.resize(num_arcs * kBatchWidth);
    arr_max_.resize(netlist.size() * kBatchWidth);
}

void BatchStaEngine::load_lane(std::size_t lane,
                               std::span<const double> gate_factors) {
    assert(lane < kBatchWidth);
    assert(gate_factors.size() == netlist_->size());
    const auto offset = netlist_->arc_offsets();
    // Per-gate scaling of the shared base.  Scaling by a positive
    // factor is weakly monotone, so max over (rise, fall) commutes with
    // it bit-for-bit — the lane column equals what a scalar engine
    // would load from the materialized per-device annotation.
    for (GateId id = 0; id < netlist_->size(); ++id) {
        const double f = gate_factors[id];
        for (std::uint32_t i = offset[id]; i < offset[id + 1]; ++i) {
            lane_base_max_[i * kBatchWidth + lane] = base_max_[i] * f;
        }
    }
    active_[lane] = 1;
    ++stats_.lane_loads;
}

void BatchStaEngine::retire_lane(std::size_t lane) {
    assert(lane < kBatchWidth);
    if (active_[lane]) {
        active_[lane] = 0;
        ++stats_.lanes_retired;
    }
}

std::size_t BatchStaEngine::active_lanes() const {
    std::size_t count = 0;
    for (std::uint8_t a : active_) count += a;
    return count;
}

void BatchStaEngine::poll_cancel() {
    // Batched per update (the inner loops stay pure); the amortized
    // cadence matches the scalar engine's per-node stride.
    poll_counter_ += netlist_->size();
    if (poll_counter_ >= kCancelStride) {
        poll_counter_ = 0;
        CancelToken::global().throw_if_cancelled();
    }
}

void BatchStaEngine::apply(const BatchDelayDelta& batch) {
    // Every non-null lane scales the same gate sequence (update()'s
    // precondition), so the first one is the shape of all of them.
    const DelayDelta* shape = nullptr;
    for (std::size_t l = 0; l < kBatchWidth && !shape; ++l) {
        shape = batch.lanes[l];
    }
    assert(shape != nullptr);
#ifndef NDEBUG
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        const DelayDelta* d = batch.lanes[l];
        if (!d) continue;
        assert(d->scales.size() == shape->scales.size());
        for (std::size_t j = 0; j < shape->scales.size(); ++j) {
            assert(d->scales[j].gate == shape->scales[j].gate);
            assert(j == 0 ||
                   shape->scales[j].gate > shape->scales[j - 1].gate);
        }
    }
#endif

    // Merge-walk of the gates against the ascending scale list:
    // cur = lane_base * factor for scaled gates (lane-innermost, a
    // fixed-trip-count multiply the compiler vectorizes), plain copies
    // for the rest.  Null (retired) lanes multiply by 1.0 — bitwise
    // identity on an unread column.
    const auto offset = netlist_->arc_offsets();
    const std::size_t num_scales = shape->scales.size();
    std::array<double, kBatchWidth> factor;
    std::size_t j = 0;
    for (GateId g = 0; g < netlist_->size(); ++g) {
        const std::size_t first = offset[g] * kBatchWidth;
        const std::size_t last = offset[g + 1] * kBatchWidth;
        if (j < num_scales && shape->scales[j].gate == g) {
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                const DelayDelta* d = batch.lanes[l];
                factor[l] = d ? d->scales[j].factor : 1.0;
            }
            ++j;
            for (std::size_t i = first; i < last; i += kBatchWidth) {
                const Time* const bmax = lane_base_max_.data() + i;
                Time* const cmax = cur_max_.data() + i;
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    cmax[l] = bmax[l] * factor[l];
                }
            }
        } else {
            std::copy(lane_base_max_.data() + first,
                      lane_base_max_.data() + last, cur_max_.data() + first);
        }
    }
    assert(j == num_scales);

    // Additive extras in entry order, after the scales (defect
    // structure differs per device, so this stays per lane; the entry
    // counts are small).
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        const DelayDelta* d = batch.lanes[l];
        if (!d) continue;
        for (const DelayDelta::ArcExtra& e : d->extras) {
            const std::uint32_t begin = offset[e.gate];
            const std::uint32_t lo =
                e.pin == DelayDelta::kAllPins ? begin : begin + e.pin;
            const std::uint32_t hi = e.pin == DelayDelta::kAllPins
                                         ? offset[e.gate + 1]
                                         : begin + e.pin + 1;
            for (std::uint32_t i = lo; i < hi; ++i) {
                cur_max_[i * kBatchWidth + l] += e.extra;
            }
        }
    }
}

void BatchStaEngine::forward() {
    Time* const arr_max = arr_max_.data();
    const Time* const dly_max = cur_max_.data();
    const GateId* const fanin = netlist_->arc_drivers().data();
    const std::uint32_t* const offset = netlist_->arc_offsets().data();
    const auto order = netlist_->topo_order();
    // Launch edge: the sources (the topo-order prefix) switch at t = 0.
    const std::size_t num_sources = netlist_->comb_sources().size();
    for (std::size_t k = 0; k < num_sources; ++k) {
        std::fill_n(arr_max + static_cast<std::size_t>(order[k]) * kBatchWidth,
                    kBatchWidth, 0.0);
    }
    for (std::size_t k = num_sources; k < order.size(); ++k) {
        const GateId id = order[k];
        // Pin loop outer, lane loop inner: each lane sees the arcs in
        // the scalar engine's order, and the inner loop is a
        // fixed-trip-count add/max the compiler turns into vector code.
        Time amax[kBatchWidth];
        for (std::size_t l = 0; l < kBatchWidth; ++l) amax[l] = 0.0;
        for (std::uint32_t i = offset[id]; i < offset[id + 1]; ++i) {
            const Time* const f_max =
                arr_max + static_cast<std::size_t>(fanin[i]) * kBatchWidth;
            const Time* const d_max =
                dly_max + static_cast<std::size_t>(i) * kBatchWidth;
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                amax[l] = std::max(amax[l], f_max[l] + d_max[l]);
            }
        }
        Time* const out_max =
            arr_max + static_cast<std::size_t>(id) * kBatchWidth;
        for (std::size_t l = 0; l < kBatchWidth; ++l) out_max[l] = amax[l];
    }
}

void BatchStaEngine::refresh_critical_path() {
    std::array<Time, kBatchWidth> cpl{};
    for (const ObservePoint& op : netlist_->observe_points()) {
        const Time* const row =
            arr_max_.data() + static_cast<std::size_t>(op.signal) * kBatchWidth;
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            cpl[l] = std::max(cpl[l], row[l]);
        }
    }
    cpl_ = cpl;
}

void BatchStaEngine::update(const BatchDelayDelta& batch) {
    std::size_t active = 0;
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        if (!active_[l]) continue;
        // Every active lane must carry a delta (BatchDelayDelta doc).
        assert(batch.lanes[l] != nullptr);
        ++active;
    }
    if (active == 0) return;
    poll_cancel();
    apply(batch);
    forward();
    refresh_critical_path();
    ++stats_.batch_passes;
}

}  // namespace fastmon
