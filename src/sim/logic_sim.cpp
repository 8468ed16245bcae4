#include "sim/logic_sim.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace fastmon {

LogicSim::LogicSim(const Netlist& netlist) : netlist_(&netlist) {
    if (!netlist.finalized()) {
        throw std::logic_error("LogicSim requires a finalized netlist");
    }
}

// Every evaluator below reads fanins through the flat arc layout: the
// pins of gate `id` are arcs [offsets[id], offsets[id + 1]) and
// drivers[arc] drives that pin.  A cell has at most 8 pins.

std::vector<Bit> LogicSim::eval(std::span<const Bit> sources) const {
    const Netlist& nl = *netlist_;
    assert(sources.size() == nl.comb_sources().size());
    const auto offsets = nl.arc_offsets();
    const auto drivers = nl.arc_drivers();
    std::vector<Bit> values(nl.size(), 0);
    bool ins[8] = {};
    for (GateId id : nl.topo_order()) {
        const std::uint32_t src = nl.source_index(id);
        if (src != std::numeric_limits<std::uint32_t>::max()) {
            values[id] = sources[src];
            continue;
        }
        const std::uint32_t base = offsets[id];
        const std::uint32_t arity = offsets[id + 1] - base;
        for (std::uint32_t p = 0; p < arity; ++p) {
            ins[p] = values[drivers[base + p]] != 0;
        }
        const CellType type = nl.gate(id).type;
        values[id] = type == CellType::Output
                         ? static_cast<Bit>(ins[0])
                         : static_cast<Bit>(eval_cell(
                               type, std::span<const bool>(ins, arity)));
    }
    // Dff nodes are sources above; their *next-state* (fanin value) is
    // what observe_points() reads, via op.signal, so nothing else to do.
    return values;
}

std::vector<std::uint64_t> LogicSim::eval64(
    std::span<const std::uint64_t> sources) const {
    const Netlist& nl = *netlist_;
    assert(sources.size() == nl.comb_sources().size());
    const auto offsets = nl.arc_offsets();
    const auto drivers = nl.arc_drivers();
    std::vector<std::uint64_t> values(nl.size(), 0);
    std::uint64_t ins[8] = {};
    for (GateId id : nl.topo_order()) {
        const std::uint32_t src = nl.source_index(id);
        if (src != std::numeric_limits<std::uint32_t>::max()) {
            values[id] = sources[src];
            continue;
        }
        const std::uint32_t base = offsets[id];
        const std::uint32_t arity = offsets[id + 1] - base;
        for (std::uint32_t p = 0; p < arity; ++p) {
            ins[p] = values[drivers[base + p]];
        }
        const CellType type = nl.gate(id).type;
        values[id] = type == CellType::Output
                         ? ins[0]
                         : eval_cell64(type, std::span<const std::uint64_t>(
                                                 ins, arity));
    }
    return values;
}

LogicSim::TernaryValues LogicSim::eval64_ternary(
    std::span<const std::uint64_t> sources_can0,
    std::span<const std::uint64_t> sources_can1) const {
    const Netlist& nl = *netlist_;
    assert(sources_can0.size() == nl.comb_sources().size());
    assert(sources_can1.size() == sources_can0.size());
    const auto offsets = nl.arc_offsets();
    const auto drivers = nl.arc_drivers();
    TernaryValues out;
    out.can0.assign(nl.size(), 0);
    out.can1.assign(nl.size(), 0);
    std::uint64_t in0[8] = {};
    std::uint64_t in1[8] = {};
    for (GateId id : nl.topo_order()) {
        const std::uint32_t src = nl.source_index(id);
        if (src != std::numeric_limits<std::uint32_t>::max()) {
            out.can0[id] = sources_can0[src];
            out.can1[id] = sources_can1[src];
            continue;
        }
        const std::uint32_t base = offsets[id];
        const std::uint32_t arity = offsets[id + 1] - base;
        for (std::uint32_t p = 0; p < arity; ++p) {
            in0[p] = out.can0[drivers[base + p]];
            in1[p] = out.can1[drivers[base + p]];
        }
        eval_cell64_ternary(nl.gate(id).type,
                            std::span<const std::uint64_t>(in0, arity),
                            std::span<const std::uint64_t>(in1, arity),
                            out.can0[id], out.can1[id]);
    }
    return out;
}

}  // namespace fastmon
