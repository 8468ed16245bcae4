#include "atpg/engine.hpp"

#include "atpg/podem.hpp"
#include "atpg/sat_atpg.hpp"

namespace fastmon {

std::string_view atpg_engine_kind_name(AtpgEngineKind kind) {
    switch (kind) {
        case AtpgEngineKind::Podem: return "podem";
        case AtpgEngineKind::Sat: return "sat";
        case AtpgEngineKind::Auto: return "auto";
    }
    return "?";
}

std::optional<AtpgEngineKind> atpg_engine_kind_from_name(
    std::string_view name) {
    if (name == "podem") return AtpgEngineKind::Podem;
    if (name == "sat") return AtpgEngineKind::Sat;
    if (name == "auto") return AtpgEngineKind::Auto;
    return std::nullopt;
}

namespace {

/// Structural engine: v2 detects "site stuck at the initial value", v1
/// justifies the initial value; X positions are filled from the
/// caller's PRNG (one draw per unassigned position, v1 before v2 per
/// source, preserving the historical draw order of the ATPG loop).
class PodemEngine final : public AtpgEngine {
public:
    PodemEngine(const Netlist& netlist, const AtpgConfig& config)
        : netlist_(&netlist), podem_(netlist, config.podem_backtrack_limit) {}

    [[nodiscard]] std::string_view name() const override { return "podem"; }

    [[nodiscard]] AtpgFaultResult generate(const TdfFault& fault,
                                           Prng& rng) override {
        AtpgFaultResult result;
        const bool initial = !fault.slow_rising;  // STR: 0 -> 1
        const PodemResult v2 = podem_.generate_test(fault.site, initial);
        result.effort = v2.backtracks;
        result.implied_gates = v2.implied_gates;
        if (v2.status == PodemStatus::Untestable) {
            result.verdict = AtpgVerdict::Untestable;
            return result;
        }
        if (v2.status == PodemStatus::Aborted) {
            result.verdict = AtpgVerdict::Aborted;
            return result;
        }
        const PodemResult v1 = podem_.justify(fault.site, initial);
        result.effort += v1.backtracks;
        result.implied_gates += v1.implied_gates;
        if (v1.status == PodemStatus::Untestable) {
            result.verdict = AtpgVerdict::Untestable;
            return result;
        }
        if (v1.status == PodemStatus::Aborted) {
            result.verdict = AtpgVerdict::Aborted;
            return result;
        }
        const std::size_t n_src = netlist_->comb_sources().size();
        result.pattern.v1.resize(n_src);
        result.pattern.v2.resize(n_src);
        for (std::size_t s = 0; s < n_src; ++s) {
            result.pattern.v1[s] =
                v1.assigned[s] ? v1.vector[s] : (rng.chance(0.5) ? 1 : 0);
            result.pattern.v2[s] =
                v2.assigned[s] ? v2.vector[s] : (rng.chance(0.5) ? 1 : 0);
        }
        result.verdict = AtpgVerdict::Testable;
        return result;
    }

private:
    const Netlist* netlist_;
    Podem podem_;
};

/// SAT-only engine (thin ownership wrapper; SatAtpg implements
/// AtpgEngine directly).
std::unique_ptr<AtpgEngine> make_sat(const Netlist& netlist,
                                     const AtpgConfig& config) {
    return std::make_unique<SatAtpg>(netlist, config);
}

/// PODEM first; aborted targets retry on a lazily built SAT engine, so
/// the CNF encoding cost is only paid when the structural search
/// actually hits its budget.
class AutoEngine final : public AtpgEngine {
public:
    AutoEngine(const Netlist& netlist, const AtpgConfig& config)
        : netlist_(&netlist), config_(config), podem_(netlist, config) {}

    [[nodiscard]] std::string_view name() const override { return "auto"; }

    [[nodiscard]] AtpgFaultResult generate(const TdfFault& fault,
                                           Prng& rng) override {
        AtpgFaultResult first = podem_.generate(fault, rng);
        if (first.verdict != AtpgVerdict::Aborted) return first;
        if (!sat_) sat_ = make_sat(*netlist_, config_);
        AtpgFaultResult second = sat_->generate(fault, rng);
        second.effort += first.effort;
        second.implied_gates += first.implied_gates;
        return second;
    }

private:
    const Netlist* netlist_;
    AtpgConfig config_;
    PodemEngine podem_;
    std::unique_ptr<AtpgEngine> sat_;
};

}  // namespace

std::unique_ptr<AtpgEngine> make_atpg_engine(const Netlist& netlist,
                                             const AtpgConfig& config) {
    switch (config.engine) {
        case AtpgEngineKind::Podem:
            return std::make_unique<PodemEngine>(netlist, config);
        case AtpgEngineKind::Sat:
            return make_sat(netlist, config);
        case AtpgEngineKind::Auto:
            return std::make_unique<AutoEngine>(netlist, config);
    }
    return std::make_unique<PodemEngine>(netlist, config);
}

}  // namespace fastmon
