// Static timing analysis over one delay annotation.
//
// StaEngine copies the annotation's per-arc max/min delays once at
// construction, indexed by the netlist's flat arc layout
// (Netlist::arc_offsets / arc_drivers), then analyze() walks
// Netlist::topo_order() for the from-scratch forward (and, for
// Scope::Full, backward) pass into result arenas it owns.  To time a
// perturbed annotation (an aged device, a grown defect), transform the
// base with a DelayDelta and build an engine over the result; the
// lifetime campaign's many-device hot path is the batched
// BatchStaEngine, not this class.
#pragma once

#include <cstdint>
#include <vector>

#include "timing/delay_model.hpp"
#include "timing/sta.hpp"

namespace fastmon {

class StaEngine {
public:
    /// What analyze() computes.  Arrivals computes only max/min
    /// arrival times plus the critical path / clock period — all the
    /// lifetime monitors read; downstream and path_through stay zero.
    /// Full additionally runs the backward pass (required by fault
    /// classification and monitor placement).
    enum class Scope : std::uint8_t { Arrivals, Full };

    /// The annotation's arc delays are copied at construction; `base`
    /// need not outlive the engine.
    StaEngine(const Netlist& netlist, const DelayAnnotation& base,
              double clock_margin = 1.05, Scope scope = Scope::Full);

    StaEngine(const StaEngine&) = delete;
    StaEngine& operator=(const StaEngine&) = delete;
    /// Moves transfer the arenas and null the source's netlist pointer
    /// and valid_ flag (a defaulted move would leave it pointing at a
    /// live netlist next to empty arenas and a stale result_).  A
    /// moved-from engine may only be destroyed or assigned to; valid()
    /// reports false on it.
    StaEngine(StaEngine&& other) noexcept;
    StaEngine& operator=(StaEngine&& other) noexcept;

    /// Full from-scratch pass over the annotation.
    const StaResult& analyze();

    /// Last computed result.  Valid after analyze() returned normally;
    /// a cancellation mid-pass leaves it stale until the next
    /// successful pass.
    [[nodiscard]] const StaResult& result() const { return result_; }

    /// Moves the result out (for code that wants an owned StaResult).
    /// The engine needs a fresh analyze() afterwards.
    [[nodiscard]] StaResult take_result();

    [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
    [[nodiscard]] double clock_margin() const { return margin_; }
    [[nodiscard]] Scope scope() const { return scope_; }
    /// False after construction-from / assignment-from this engine
    /// (moved-from state) and between a cancelled pass and the next
    /// successful one; result() is only meaningful when true.
    [[nodiscard]] bool valid() const { return valid_; }

private:
    void forward();
    void backward();
    void poll_cancel();

    const Netlist* netlist_;
    double margin_;
    Scope scope_;

    /// Per arc of the netlist's flat layout: max/min(rise, fall).
    std::vector<Time> arc_max_, arc_min_;

    StaResult result_;
    bool valid_ = false;
    std::size_t poll_counter_ = 0;
};

}  // namespace fastmon
