// Unified test-generation engine interface.
//
// The transition-fault ATPG (tdf_atpg.hpp) targets one fault at a time
// in its deterministic phase; AtpgEngine abstracts over how that
// target is solved.  Two implementations exist:
//
//   * Podem   — classic structural search (podem.hpp), bounded by a
//               backtrack limit,
//   * SatAtpg — incremental CNF-based generation (sat_atpg.hpp),
//               bounded by a per-fault conflict budget,
//
// plus an Auto policy that runs PODEM first and retries aborted
// targets with SAT (the SAT encoder is only built when first needed).
// All engine selection and effort knobs live in AtpgConfig so the
// flow / CLI / manifest see one configuration surface instead of
// per-engine constructor parameters.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "atpg/tfault_sim.hpp"
#include "util/prng.hpp"

namespace fastmon {

enum class AtpgEngineKind : std::uint8_t {
    Podem,  ///< structural PODEM only
    Sat,    ///< incremental SAT only
    Auto,   ///< PODEM first, SAT fallback for aborted targets
};

std::string_view atpg_engine_kind_name(AtpgEngineKind kind);
std::optional<AtpgEngineKind> atpg_engine_kind_from_name(std::string_view name);

/// All ATPG knobs, engine selection included (recorded in the run
/// manifest by HdfFlow).
struct AtpgConfig {
    std::uint64_t seed = 1;
    /// Random phase stops after this many consecutive batches without a
    /// new detection.
    std::size_t max_idle_batches = 10;
    std::size_t max_random_batches = 200;
    /// Skip the deterministic phase entirely (fast mode for benches).
    bool deterministic_phase = true;
    /// Cap on deterministic targets (0 = unlimited).
    std::size_t max_deterministic_faults = 0;

    /// Which engine the deterministic phase uses.
    AtpgEngineKind engine = AtpgEngineKind::Podem;
    /// PODEM effort cap (per target).
    std::size_t podem_backtrack_limit = 250;
    /// SAT effort cap (conflicts per target; 0 = unlimited).
    std::uint64_t sat_conflict_budget = 20000;
    /// SAT solver is rebuilt (dropping learned clauses and fault-cone
    /// encodings) after this many encoded fault sites; bounds clause-
    /// database growth on long fault lists.  0 = never rebuild.
    std::size_t sat_restart_period = 512;
};

enum class AtpgVerdict : std::uint8_t {
    Testable,    ///< `pattern` is a witness pair
    Untestable,  ///< proven redundant
    Aborted,     ///< effort budget exhausted
};

struct AtpgFaultResult {
    AtpgVerdict verdict = AtpgVerdict::Aborted;
    /// Complete (v1, v2) enhanced-scan pair when Testable; positions the
    /// engine left unconstrained are filled from the caller's PRNG.
    PatternPair pattern;
    /// Search effort spent on this target: backtracks for PODEM,
    /// conflicts for SAT (summed for Auto).
    std::uint64_t effort = 0;
    /// Gates PODEM re-evaluated during implication (0 for SAT).
    std::uint64_t implied_gates = 0;
};

class AtpgEngine {
public:
    virtual ~AtpgEngine() = default;

    [[nodiscard]] virtual std::string_view name() const = 0;

    /// Generates a test for one transition fault.  `rng` fills pattern
    /// positions the engine leaves unconstrained, keeping the caller in
    /// charge of reproducibility.
    [[nodiscard]] virtual AtpgFaultResult generate(const TdfFault& fault,
                                                   Prng& rng) = 0;
};

/// Builds the engine selected by `config.engine`.
std::unique_ptr<AtpgEngine> make_atpg_engine(const Netlist& netlist,
                                             const AtpgConfig& config);

}  // namespace fastmon
