#include "timing/batch_sta_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/cancel.hpp"

namespace fastmon {

namespace {

constexpr std::size_t kCancelStride = 4096;

// Exactness test of the rescale tier: multiplying by 2^k shifts
// the exponent without touching the mantissa, so rescaling cached
// columns commutes with FP rounding.
bool is_power_of_two(double v) {
    if (!(v > 0.0) || !std::isfinite(v)) return false;
    int exp = 0;
    return std::frexp(v, &exp) == 0.5;
}

}  // namespace

BatchStaEngine::BatchStaEngine(const Netlist& netlist,
                               const DelayAnnotation& base,
                               double clock_margin, bool track_min)
    : netlist_(&netlist), margin_(clock_margin), track_min_(track_min) {
    assert(netlist.finalized());
    const std::size_t n = netlist.size();
    offset_.resize(n + 1);
    std::uint32_t cursor = 0;
    for (GateId id = 0; id < n; ++id) {
        offset_[id] = cursor;
        cursor += static_cast<std::uint32_t>(netlist.gate(id).fanin.size());
    }
    offset_[n] = cursor;
    const auto order = netlist.topo_order();
    topo_.assign(order.begin(), order.end());
    is_source_.resize(n);
    fanin_flat_.resize(cursor);
    base_max_.resize(cursor);
    if (track_min_) base_min_.resize(cursor);
    for (GateId id = 0; id < n; ++id) {
        const Gate& g = netlist.gate(id);
        is_source_[id] =
            g.type == CellType::Input || g.type == CellType::Dff ? 1 : 0;
        const std::uint32_t start = offset_[id];
        for (std::uint32_t pin = 0; pin < g.fanin.size(); ++pin) {
            fanin_flat_[start + pin] = g.fanin[pin];
            const PinDelay d = base.arc(id, pin);
            base_max_[start + pin] = std::max(d.rise, d.fall);
            if (track_min_) {
                base_min_[start + pin] = std::min(d.rise, d.fall);
            }
        }
    }
    const std::size_t cols = static_cast<std::size_t>(cursor) * kBatchWidth;
    lane_base_max_.resize(cols);
    cur_max_.resize(cols);
    arr_max_.assign(n * kBatchWidth, 0.0);
    if (track_min_) {
        lane_base_min_.resize(cols);
        cur_min_.resize(cols);
        arr_min_.assign(n * kBatchWidth, 0.0);
    }
    // Every lane starts at the shared base, inactive.
    for (std::size_t i = 0; i < cursor; ++i) {
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            lane_base_max_[i * kBatchWidth + l] = base_max_[i];
            if (track_min_) {
                lane_base_min_[i * kBatchWidth + l] = base_min_[i];
            }
        }
    }
    lane_uniform_.fill(1.0);
}

void BatchStaEngine::load_lane(std::size_t lane,
                               std::span<const double> gate_factors) {
    assert(lane < kBatchWidth);
    assert(gate_factors.size() == netlist_->size());
    const std::size_t n = netlist_->size();
    // Per-gate scaling of the shared base.  Scaling by a positive
    // factor is weakly monotone, so max/min over (rise, fall) commute
    // with it bit-for-bit — the lane column equals what a scalar engine
    // would load from the materialized per-device annotation.
    for (GateId id = 0; id < n; ++id) {
        const double f = gate_factors[id];
        const std::uint32_t begin = offset_[id];
        const std::uint32_t end = offset_[id + 1];
        if (f == 1.0) {
            for (std::uint32_t i = begin; i < end; ++i) {
                lane_base_max_[i * kBatchWidth + lane] = base_max_[i];
                if (track_min_) {
                    lane_base_min_[i * kBatchWidth + lane] = base_min_[i];
                }
            }
        } else {
            for (std::uint32_t i = begin; i < end; ++i) {
                lane_base_max_[i * kBatchWidth + lane] = base_max_[i] * f;
                if (track_min_) {
                    lane_base_min_[i * kBatchWidth + lane] =
                        base_min_[i] * f;
                }
            }
        }
    }
    active_[lane] = 1;
    // NaN = "current columns unrelated to the new lane base": the next
    // update must rebuild densely before the rescale tier may trigger.
    lane_uniform_[lane] = std::numeric_limits<double>::quiet_NaN();
    ++stats_.lane_loads;
}

void BatchStaEngine::load_lane(std::size_t lane) {
    assert(lane < kBatchWidth);
    const std::size_t num_arcs = offset_[netlist_->size()];
    for (std::size_t i = 0; i < num_arcs; ++i) {
        lane_base_max_[i * kBatchWidth + lane] = base_max_[i];
        if (track_min_) {
            lane_base_min_[i * kBatchWidth + lane] = base_min_[i];
        }
    }
    active_[lane] = 1;
    lane_uniform_[lane] = std::numeric_limits<double>::quiet_NaN();
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
    poll_counter_ += topo_.size();
    if (poll_counter_ >= kCancelStride) {
        poll_counter_ = 0;
        CancelToken::global().throw_if_cancelled();
    }
}

void BatchStaEngine::rescale(const BatchDelayDelta& batch) {
    std::array<double, kBatchWidth> ratio;
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        ratio[l] = 1.0;
        if (!active_[l] || !batch.lanes[l]) continue;
        const double u = batch.lanes[l]->uniform_scale;
        ratio[l] = u / lane_uniform_[l];
        lane_uniform_[l] = u;
    }
    const std::size_t num_arcs = offset_[netlist_->size()];
    for (std::size_t i = 0; i < num_arcs; ++i) {
        Time* const cmax = cur_max_.data() + i * kBatchWidth;
        for (std::size_t l = 0; l < kBatchWidth; ++l) cmax[l] *= ratio[l];
    }
    const std::size_t n = netlist_->size();
    for (std::size_t g = 0; g < n; ++g) {
        Time* const amax = arr_max_.data() + g * kBatchWidth;
        for (std::size_t l = 0; l < kBatchWidth; ++l) amax[l] *= ratio[l];
    }
    if (track_min_) {
        for (std::size_t i = 0; i < num_arcs; ++i) {
            Time* const cmin = cur_min_.data() + i * kBatchWidth;
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                cmin[l] *= ratio[l];
            }
        }
        for (std::size_t g = 0; g < n; ++g) {
            Time* const amin = arr_min_.data() + g * kBatchWidth;
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                amin[l] *= ratio[l];
            }
        }
    }
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        cpl_[l] *= ratio[l];
        clock_[l] = margin_ * cpl_[l];
    }
    ++stats_.scaled_updates;
}

void BatchStaEngine::apply(const BatchDelayDelta& batch) {
    const std::size_t num_arcs = offset_[netlist_->size()];
    // Stage 1: uniform scales.  Lanes without a delta (retired) revert
    // to their lane base — their columns keep computing, unread.
    std::array<double, kBatchWidth> uniform;
    bool all_one = true;
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        const DelayDelta* d = batch.lanes[l];
        uniform[l] = d ? d->uniform_scale : 1.0;
        all_one = all_one && uniform[l] == 1.0;
    }
    // Common-shape detection (campaign fast path): every lane's delta
    // scales the same gate sequence — the aging delta always does (all
    // combinational gates, ascending).  `ascending` additionally allows
    // fusing the base copy and the scale stage into one merge-walk.
    const DelayDelta* shape = nullptr;
    bool common_shape = true;
    bool ascending = true;
    if (batch.aligned) {
        // Caller-asserted shape (the campaign rollout fills every lane
        // from the same DeviceDegradation formula): skip detection.
        for (std::size_t l = 0; l < kBatchWidth && !shape; ++l) {
            shape = batch.lanes[l];
        }
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
    } else {
        for (std::size_t l = 0; l < kBatchWidth && common_shape; ++l) {
            const DelayDelta* d = batch.lanes[l];
            if (!d) continue;
            if (!shape) {
                shape = d;
                for (std::size_t j = 1; j < shape->scales.size(); ++j) {
                    if (shape->scales[j].gate <= shape->scales[j - 1].gate) {
                        ascending = false;
                        break;
                    }
                }
                continue;
            }
            if (d->scales.size() != shape->scales.size()) {
                common_shape = false;
                break;
            }
            for (std::size_t j = 0; j < shape->scales.size(); ++j) {
                if (d->scales[j].gate != shape->scales[j].gate) {
                    common_shape = false;
                    break;
                }
            }
        }
    }

    if (all_one && common_shape && ascending && shape &&
        !shape->scales.empty()) {
        // Fused stage 1+2: cur = lane_base * factor in one pass (the
        // same product bits as copy-then-multiply), plain copies for
        // unscaled gates.  Entries are consumed in order, so each
        // lane's column still sees its factors in entry order.
        std::array<double, kBatchWidth> factor;
        const std::size_t n = netlist_->size();
        const std::size_t ns = shape->scales.size();
        std::size_t j = 0;
        for (GateId g = 0; g < n; ++g) {
            const std::uint32_t begin = offset_[g];
            const std::uint32_t end = offset_[g + 1];
            if (j < ns && shape->scales[j].gate == g) {
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    const DelayDelta* d = batch.lanes[l];
                    factor[l] = d ? d->scales[j].factor : 1.0;
                }
                ++j;
                for (std::uint32_t i = begin; i < end; ++i) {
                    const Time* const bmax =
                        lane_base_max_.data() + i * kBatchWidth;
                    Time* const cmax = cur_max_.data() + i * kBatchWidth;
                    for (std::size_t l = 0; l < kBatchWidth; ++l) {
                        cmax[l] = bmax[l] * factor[l];
                    }
                }
                if (track_min_) {
                    for (std::uint32_t i = begin; i < end; ++i) {
                        const Time* const bmin =
                            lane_base_min_.data() + i * kBatchWidth;
                        Time* const cmin =
                            cur_min_.data() + i * kBatchWidth;
                        for (std::size_t l = 0; l < kBatchWidth; ++l) {
                            cmin[l] = bmin[l] * factor[l];
                        }
                    }
                }
            } else {
                const std::size_t first = begin * kBatchWidth;
                const std::size_t count =
                    (end - begin) * kBatchWidth;
                std::copy_n(lane_base_max_.data() + first, count,
                            cur_max_.data() + first);
                if (track_min_) {
                    std::copy_n(lane_base_min_.data() + first, count,
                                cur_min_.data() + first);
                }
            }
        }
        assert(j == ns);
        finish_apply(batch);
        return;
    }

    if (all_one) {
        std::copy(lane_base_max_.begin(), lane_base_max_.end(),
                  cur_max_.begin());
        if (track_min_) {
            std::copy(lane_base_min_.begin(), lane_base_min_.end(),
                      cur_min_.begin());
        }
    } else {
        // x * 1.0 is bitwise x, so unchanged lanes stay exact.
        for (std::size_t i = 0; i < num_arcs; ++i) {
            const Time* const bmax = lane_base_max_.data() + i * kBatchWidth;
            Time* const cmax = cur_max_.data() + i * kBatchWidth;
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                cmax[l] = bmax[l] * uniform[l];
            }
        }
        if (track_min_) {
            for (std::size_t i = 0; i < num_arcs; ++i) {
                const Time* const bmin =
                    lane_base_min_.data() + i * kBatchWidth;
                Time* const cmin = cur_min_.data() + i * kBatchWidth;
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    cmin[l] = bmin[l] * uniform[l];
                }
            }
        }
    }
    // Stage 2: per-gate scales in entry order.  With a common shape the
    // entry loop runs lane-innermost — a contiguous fixed-trip-count
    // multiply the compiler vectorizes.  Each lane's column still sees
    // its own factors in entry order, so the arithmetic sequence per
    // lane is unchanged (null lanes multiply by 1.0: bitwise identity
    // on an unread column).
    if (common_shape && shape && !shape->scales.empty()) {
        std::array<double, kBatchWidth> factor;
        for (std::size_t j = 0; j < shape->scales.size(); ++j) {
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                const DelayDelta* d = batch.lanes[l];
                factor[l] = d ? d->scales[j].factor : 1.0;
            }
            const GateId gate = shape->scales[j].gate;
            const std::uint32_t begin = offset_[gate];
            const std::uint32_t end = offset_[gate + 1];
            for (std::uint32_t i = begin; i < end; ++i) {
                Time* const cmax = cur_max_.data() + i * kBatchWidth;
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    cmax[l] *= factor[l];
                }
            }
            if (track_min_) {
                for (std::uint32_t i = begin; i < end; ++i) {
                    Time* const cmin = cur_min_.data() + i * kBatchWidth;
                    for (std::size_t l = 0; l < kBatchWidth; ++l) {
                        cmin[l] *= factor[l];
                    }
                }
            }
        }
    } else {
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            const DelayDelta* d = batch.lanes[l];
            if (!d) continue;
            for (const DelayDelta::GateScale& s : d->scales) {
                for (std::uint32_t i = offset_[s.gate];
                     i < offset_[s.gate + 1]; ++i) {
                    cur_max_[i * kBatchWidth + l] *= s.factor;
                    if (track_min_) {
                        cur_min_[i * kBatchWidth + l] *= s.factor;
                    }
                }
            }
        }
    }
    finish_apply(batch);
}

// Stage 3: additive extras in entry order (defect structure differs
// per device, so this stays per lane; the entry counts are small),
// plus the per-lane uniform-state bookkeeping for the rescale tier.
void BatchStaEngine::finish_apply(const BatchDelayDelta& batch) {
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        const DelayDelta* d = batch.lanes[l];
        if (!d) {
            lane_uniform_[l] = 1.0;
            continue;
        }
        for (const DelayDelta::ArcExtra& e : d->extras) {
            const std::uint32_t begin = offset_[e.gate];
            const std::uint32_t first =
                e.pin == DelayDelta::kAllPins ? begin : begin + e.pin;
            const std::uint32_t last = e.pin == DelayDelta::kAllPins
                                           ? offset_[e.gate + 1]
                                           : begin + e.pin + 1;
            for (std::uint32_t i = first; i < last; ++i) {
                cur_max_[i * kBatchWidth + l] += e.extra;
                if (track_min_) {
                    cur_min_[i * kBatchWidth + l] += e.extra;
                }
            }
        }
        lane_uniform_[l] = d->scales.empty() && d->extras.empty()
                               ? d->uniform_scale
                               : std::numeric_limits<double>::quiet_NaN();
    }
}

void BatchStaEngine::forward() {
    if (track_min_) {
        forward_impl<true>();
    } else {
        forward_impl<false>();
    }
}

template <bool TrackMin>
void BatchStaEngine::forward_impl() {
    Time* const arr_max = arr_max_.data();
    Time* const arr_min = TrackMin ? arr_min_.data() : nullptr;
    const Time* const dly_max = cur_max_.data();
    const Time* const dly_min = TrackMin ? cur_min_.data() : nullptr;
    const GateId* const fanin = fanin_flat_.data();
    const std::uint32_t* const offset = offset_.data();
    constexpr Time kUnset = std::numeric_limits<Time>::max();
    for (const GateId id : topo_) {
        Time* const out_max = arr_max + static_cast<std::size_t>(id) * kBatchWidth;
        if (is_source_[id]) {
            for (std::size_t l = 0; l < kBatchWidth; ++l) out_max[l] = 0.0;
            if constexpr (TrackMin) {
                Time* const out_min =
                    arr_min + static_cast<std::size_t>(id) * kBatchWidth;
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    out_min[l] = 0.0;
                }
            }
            continue;
        }
        // Pin loop outer, lane loop inner: each lane sees the arcs in
        // the scalar engine's order, and the inner loop is a
        // fixed-trip-count add/max the compiler turns into vector code.
        Time amax[kBatchWidth];
        Time amin[kBatchWidth];
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            amax[l] = 0.0;
            amin[l] = kUnset;
        }
        const std::uint32_t start = offset[id];
        const std::uint32_t end = offset[id + 1];
        for (std::uint32_t i = start; i < end; ++i) {
            const Time* const f_max =
                arr_max + static_cast<std::size_t>(fanin[i]) * kBatchWidth;
            const Time* const d_max = dly_max + static_cast<std::size_t>(i) * kBatchWidth;
            if constexpr (TrackMin) {
                const Time* const f_min =
                    arr_min +
                    static_cast<std::size_t>(fanin[i]) * kBatchWidth;
                const Time* const d_min =
                    dly_min + static_cast<std::size_t>(i) * kBatchWidth;
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    amax[l] = std::max(amax[l], f_max[l] + d_max[l]);
                    amin[l] = std::min(amin[l], f_min[l] + d_min[l]);
                }
            } else {
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    amax[l] = std::max(amax[l], f_max[l] + d_max[l]);
                }
            }
        }
        for (std::size_t l = 0; l < kBatchWidth; ++l) out_max[l] = amax[l];
        if constexpr (TrackMin) {
            Time* const out_min =
                arr_min + static_cast<std::size_t>(id) * kBatchWidth;
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                out_min[l] = amin[l] == kUnset ? 0.0 : amin[l];
            }
        }
    }
}

void BatchStaEngine::refresh_clock() {
    std::array<Time, kBatchWidth> cpl{};
    for (const ObservePoint& op : netlist_->observe_points()) {
        const Time* const row =
            arr_max_.data() + static_cast<std::size_t>(op.signal) * kBatchWidth;
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            cpl[l] = std::max(cpl[l], row[l]);
        }
    }
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        cpl_[l] = cpl[l];
        clock_[l] = margin_ * cpl[l];
    }
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

    // Rescale tier: all active lanes request pure uniform scales over
    // pure-uniform lane states, and every factor pair is a power of
    // two (or unchanged).  Exact per lane; see is_power_of_two.
    if (has_result_) {
        bool rescalable = true;
        bool any_change = false;
        for (std::size_t l = 0; l < kBatchWidth && rescalable; ++l) {
            if (!active_[l]) continue;
            const DelayDelta* d = batch.lanes[l];
            if (!d->scales.empty() || !d->extras.empty() ||
                std::isnan(lane_uniform_[l])) {
                rescalable = false;
                break;
            }
            if (d->uniform_scale == lane_uniform_[l]) continue;
            if (!is_power_of_two(d->uniform_scale) ||
                !is_power_of_two(lane_uniform_[l])) {
                rescalable = false;
                break;
            }
            any_change = true;
        }
        if (rescalable) {
            stats_.lane_updates += active;
            if (any_change) {
                rescale(batch);
            } else {
                ++stats_.scaled_updates;  // cached: every lane unchanged
            }
            return;
        }
    }

    apply(batch);
    forward();
    refresh_clock();
    has_result_ = true;
    ++stats_.batch_passes;
    stats_.lane_updates += active;
}

}  // namespace fastmon
