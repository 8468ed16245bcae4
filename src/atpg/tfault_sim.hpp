// 64-way parallel-pattern transition delay fault (TDF) simulation.
//
// Under enhanced-scan application a slow-to-rise (slow-to-fall)
// transition fault at a site is detected by a pattern pair (v1, v2) iff
// v1 sets the site to the initial value, v2 launches the transition,
// and the stale value propagates to an observation point under v2 —
// i.e. the gross-delay abstraction of a delay fault.  The simulator
// packs 64 pattern pairs into machine words and re-simulates only the
// fanout cone per fault, with fault dropping.  Faulty words live in a
// dense epoch-stamped overlay indexed by GateId (as in FaultSim): a
// membership test is one load, and a new fault clears the overlay by
// bumping the epoch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/fault_sim.hpp"
#include "sim/logic_sim.hpp"
#include "sim/pattern.hpp"

namespace fastmon {

/// A transition delay fault used for ATPG coverage.
struct TdfFault {
    FaultSite site;
    bool slow_rising = true;

    friend bool operator==(const TdfFault&, const TdfFault&) = default;
};

/// All transition faults of the circuit (both directions at every pin
/// of every combinational gate).
std::vector<TdfFault> enumerate_tdf_faults(const Netlist& netlist);

class TransitionFaultSim {
public:
    explicit TransitionFaultSim(const Netlist& netlist);

    /// Packs up to 64 pattern pairs (starting at `first`) into words per
    /// source; lanes beyond the pattern count replicate pattern 0.
    struct Batch {
        std::vector<std::uint64_t> src1;
        std::vector<std::uint64_t> src2;
        std::size_t count = 0;
    };
    [[nodiscard]] Batch pack(std::span<const PatternPair> patterns,
                             std::size_t first) const;

    /// Node values for both vectors of a packed batch.
    struct BatchValues {
        std::vector<std::uint64_t> val1;
        std::vector<std::uint64_t> val2;
    };
    [[nodiscard]] BatchValues evaluate(const Batch& batch) const;

    /// Lane mask of patterns in the batch that detect `fault`.  Uses
    /// the simulator's overlay: one simulator per thread.
    [[nodiscard]] std::uint64_t detect_mask(const TdfFault& fault,
                                            const BatchValues& values);

    [[nodiscard]] const Netlist& netlist() const { return *netlist_; }

private:
    const Netlist* netlist_;
    LogicSim logic_;
    /// Faulty v2 word of each gate whose stamp equals epoch_ (the gates
    /// the current fault changed, listed in changed_); every other gate
    /// has its good word.
    std::vector<std::uint64_t> overlay_;
    std::vector<std::uint32_t> stamp_;
    std::uint32_t epoch_ = 0;
    std::vector<GateId> changed_;
    /// 1 for gates that drive an observation point.
    std::vector<std::uint8_t> observed_;
};

/// Convenience: fault-simulates `patterns` against `faults` with
/// dropping; returns per-fault index of the first detecting pattern
/// (SIZE_MAX if undetected).
std::vector<std::size_t> fault_simulate_tdf(const Netlist& netlist,
                                            std::span<const TdfFault> faults,
                                            std::span<const PatternPair> patterns);

}  // namespace fastmon
