// flow_s9234 and detect_s38417: the paper's HDF flow (Fig. 4) on a
// generated circuit, run once through HdfFlow::run and once stage by
// stage through the public stage functions.  The stage-by-stage run
// mirrors HdfFlow::prepare()/run() call for call; the fingerprint check
// in main.cpp proves that both give the same result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "atpg/tdf_atpg.hpp"
#include "bench.hpp"
#include "flow/hdf_flow.hpp"
#include "netlist/generator.hpp"
#include "schedule/validate.hpp"
#include "util/metrics.hpp"
#include "util/prng.hpp"

namespace fmbench {
namespace {

using namespace fastmon;

/// Set-cover time limit far beyond any run: solver effort is bounded by
/// the node budget alone, so schedules never depend on the wall clock.
constexpr double kOutOfReachSeconds = 1e6;

constexpr std::size_t kSimulatedFaults = 3000;
constexpr std::size_t kSuppliedPatterns = 512;
constexpr std::size_t kThreads = 4;

/// Registry counters whose per-run deltas must repeat exactly.
constexpr const char* kExactCounters[] = {
    "atpg.backtracks",           "atpg.random_batches",
    "opt.set_cover.solves",      "opt.set_cover.nodes",
    "opt.set_cover.budget_exhausted",
};

/// Snapshot of registry counters; delta() reads the growth since.
class CounterSnapshot {
public:
    explicit CounterSnapshot(std::initializer_list<const char*> extra = {}) {
        for (const char* name : kExactCounters) take(name);
        for (const char* name : extra) take(name);
    }
    [[nodiscard]] double delta(const std::string& name) const {
        return static_cast<double>(
            MetricsRegistry::global().counter(name).value() - start_.at(name));
    }
    [[nodiscard]] Values exact() const {
        Values v;
        for (const char* name : kExactCounters) v[name] = delta(name);
        return v;
    }

private:
    void take(const char* name) {
        start_[name] = MetricsRegistry::global().counter(name).value();
    }
    std::map<std::string, std::uint64_t> start_;
};

/// The benches' full-mode flow configuration (bench_flow_config), with
/// the solver time limit out of reach and a fixed thread count.
HdfFlowConfig flow_config(const CircuitProfile& profile,
                          std::uint64_t atpg_seed) {
    HdfFlowConfig c;
    c.seed = profile.seed;
    c.max_simulated_faults = kSimulatedFaults;
    c.atpg.seed = atpg_seed;
    c.atpg.max_deterministic_faults = 400;
    c.atpg.deterministic_phase = true;
    c.atpg.max_random_batches = 150;
    c.solver.max_nodes = 200000;
    c.solver.time_limit_sec = kOutOfReachSeconds;
    c.num_threads = kThreads;
    return c;
}

/// Appends "key=value;" with the value printed to round-trip.
void append_field(std::string& out, const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g;", key, value);
    out += buf;
}

std::string fingerprint(const HdfFlowResult& r, const TestSet& tests) {
    std::string s = r.circuit + ';';
    append_field(s, "gates", static_cast<double>(r.num_gates));
    append_field(s, "ffs", static_cast<double>(r.num_ffs));
    append_field(s, "patterns", static_cast<double>(r.num_patterns));
    append_field(s, "monitors", static_cast<double>(r.num_monitors));
    append_field(s, "universe", static_cast<double>(r.fault_universe));
    append_field(s, "at_speed", static_cast<double>(r.at_speed_detectable));
    append_field(s, "redundant", static_cast<double>(r.timing_redundant));
    append_field(s, "candidates", static_cast<double>(r.candidate_faults));
    append_field(s, "simulated", static_cast<double>(r.simulated_faults));
    append_field(s, "conv", static_cast<double>(r.detected_conv));
    append_field(s, "prop", static_cast<double>(r.detected_prop));
    append_field(s, "gain", r.gain_percent);
    append_field(s, "monitor_at_speed", static_cast<double>(r.monitor_at_speed));
    append_field(s, "targets", static_cast<double>(r.target_faults));
    append_field(s, "freq_conv", static_cast<double>(r.freq_conv));
    append_field(s, "freq_heur", static_cast<double>(r.freq_heur));
    append_field(s, "freq_prop", static_cast<double>(r.freq_prop));
    append_field(s, "orig_pc", static_cast<double>(r.orig_pc));
    append_field(s, "opti_pc", static_cast<double>(r.opti_pc));
    append_field(s, "optimal", r.schedule_proven_optimal ? 1.0 : 0.0);
    append_field(s, "uncovered", static_cast<double>(r.schedule_uncovered));
    for (const CoverageRow& row : r.coverage_rows) s += row.to_json().dump();
    append_field(s, "clock", r.clock_period);
    append_field(s, "t_min", r.t_min);
    append_field(s, "atpg_coverage", r.atpg_coverage);
    const DetectionCounters& d = r.detection;
    append_field(s, "pairs_total", static_cast<double>(d.pairs_total));
    append_field(s, "pairs_screened", static_cast<double>(d.pairs_screened_out));
    append_field(s, "pairs_inactive", static_cast<double>(d.pairs_inactive));
    append_field(s, "pairs_simulated", static_cast<double>(d.pairs_simulated));
    append_field(s, "pairs_detected", static_cast<double>(d.pairs_detected));
    s += "tests=" + std::to_string(fnv1a(write_patterns_string(tests)));
    return s;
}

/// Re-simulates `tests` with the TDF fault simulator; returns a failure
/// message when it does not reproduce the ATPG's reported coverage.
std::optional<std::string> check_tdf(const Netlist& nl, const TestSet& tests,
                                     double reported_coverage) {
    const std::vector<TdfFault> faults = enumerate_tdf_faults(nl);
    const std::vector<std::size_t> first =
        fault_simulate_tdf(nl, faults, tests.patterns);
    const auto detected = static_cast<std::size_t>(
        std::count_if(first.begin(), first.end(),
                      [](std::size_t p) { return p != SIZE_MAX; }));
    const double coverage = faults.empty()
                                ? 1.0
                                : static_cast<double>(detected) /
                                      static_cast<double>(faults.size());
    if (coverage == reported_coverage) return std::nullopt;
    return "TDF re-simulation detects " + std::to_string(detected) + " of " +
           std::to_string(faults.size()) +
           " faults, ATPG reported coverage " +
           std::to_string(reported_coverage);
}

double hdf_detected_prop(const HdfFlowResult& r) {
    const double hdf = static_cast<double>(r.fault_universe) -
                       static_cast<double>(r.at_speed_detectable);
    return hdf > 0.0 ? static_cast<double>(r.detected_prop) / hdf : 0.0;
}

class FlowWorkload final : public Workload {
public:
    FlowWorkload(const std::string& profile, std::size_t max_gates,
                 bool supplied_patterns, std::uint64_t seed)
        : profile_(find_profile(profile)),
          max_gates_(max_gates),
          supplied_(supplied_patterns),
          seed_(seed) {}

    double setup() override {
        const double scale =
            max_gates_ == 0 || profile_.gates <= max_gates_
                ? 1.0
                : static_cast<double>(max_gates_) /
                      static_cast<double>(profile_.gates);
        const auto t0 = Clock::now();
        netlist_.emplace(generate_circuit(profile_config(profile_, scale)));
        const double generate_s = seconds_between(t0, Clock::now());
        config_ = flow_config(profile_, seed_);
        if (supplied_) {
            // Seeded random pattern pairs over the combinational sources:
            // the flow then runs no ATPG at all.
            Prng rng(seed_);
            const std::size_t n_src = netlist_->comb_sources().size();
            TestSet tests;
            tests.patterns.resize(kSuppliedPatterns);
            for (PatternPair& p : tests.patterns) {
                p.v1.resize(n_src);
                p.v2.resize(n_src);
                for (std::size_t s = 0; s < n_src; ++s) {
                    p.v1[s] = rng.chance(0.5) ? 1 : 0;
                    p.v2[s] = rng.chance(0.5) ? 1 : 0;
                }
            }
            config_.test_set = std::move(tests);
        }
        return generate_s;
    }

    RunOutcome run() override {
        const CounterSnapshot counters;
        RunOutcome out;
        HdfFlow flow(*netlist_, config_);
        const auto t0 = Clock::now();
        const HdfFlowResult r = flow.run();
        out.wall_s = seconds_between(t0, Clock::now());
        out.exact = counters.exact();
        if (!r.status.complete()) {
            out.failures.push_back("flow status is " +
                                   r.status.to_json().dump());
        }
        finish(out, r, flow.patterns());
        return out;
    }

    RunOutcome run_traced(SpanLog& log) override;

private:
    /// Checks and outputs shared by the untraced and the traced run.
    void finish(RunOutcome& out, const HdfFlowResult& r,
                const TestSet& tests) const {
        if (!supplied_) {
            if (auto err = check_tdf(*netlist_, tests, r.atpg_coverage)) {
                out.failures.push_back(*err);
            }
        } else if (tests.size() != kSuppliedPatterns) {
            out.failures.push_back("supplied test set not applied");
        }
        out.fingerprint = fingerprint(r, tests);
        out.quality = hdf_detected_prop(r);
    }

    CircuitProfile profile_;
    std::size_t max_gates_;
    bool supplied_;
    std::uint64_t seed_;
    std::optional<Netlist> netlist_;
    HdfFlowConfig config_;
};

RunOutcome FlowWorkload::run_traced(SpanLog& log) {
    const CounterSnapshot counters({"schedule.discretize.raw_candidates",
                                    "schedule.discretize.kept_candidates"});
    const Netlist& nl = *netlist_;
    const HdfFlowConfig& cfg = config_;
    RunOutcome out;
    HdfFlowResult res;
    const auto t_start = Clock::now();
    std::optional<SpanLog::Scope> flow_span(std::in_place, log, "flow");

    // --- prepare(): STA, monitors, ATPG, classification, pass A ------
    const DelayAnnotation delays = DelayAnnotation::nominal(nl);
    StaResult sta;
    {
        const SpanLog::Scope span(log, "timing.sta");
        StaEngine engine(nl, delays, cfg.clock_margin);
        sta = engine.analyze();
    }
    MonitorPlacement placement;
    {
        const SpanLog::Scope span(log, "monitor.place");
        placement = place_monitors(nl, sta, cfg.monitor_fraction,
                                   cfg.monitor_delay_fractions);
    }
    TestSet tests;
    AtpgResult ar;
    if (cfg.test_set.has_value()) {
        tests = *cfg.test_set;
    } else {
        const SpanLog::Scope span(log, "atpg.generate");
        AtpgConfig atpg = cfg.atpg;
        atpg.seed ^= cfg.seed;
        ar = generate_tdf_tests(nl, atpg);
        tests = ar.test_set;
        res.atpg_coverage = ar.coverage();
        if (ar.interrupted) out.failures.push_back("ATPG interrupted");
    }
    FaultUniverse universe;
    StructuralClassification structural;
    std::vector<FaultId> simulated;
    double sample_scale = 1.0;
    {
        const SpanLog::Scope span(log, "fault.classify");
        universe = FaultUniverse::generate(nl, delays, cfg.delta_factor);
        StructuralClassifyConfig scc;
        scc.fmax_factor = cfg.fmax_factor;
        scc.max_monitor_delay = placement.max_delay();
        scc.monitored_observe = placement.monitored;
        structural = classify_structural(nl, delays, sta, universe, scc);
        std::vector<FaultId> candidates = structural.candidates();
        if (cfg.max_simulated_faults != 0 &&
            candidates.size() > cfg.max_simulated_faults) {
            const std::size_t n = candidates.size();
            const std::size_t k = cfg.max_simulated_faults;
            for (std::size_t i = 0; i < k; ++i) {
                simulated.push_back(candidates[i * n / k]);
            }
            simulated.erase(std::unique(simulated.begin(), simulated.end()),
                            simulated.end());
            sample_scale = static_cast<double>(n) /
                           static_cast<double>(simulated.size());
        } else {
            simulated = std::move(candidates);
        }
    }
    DetectionAnalysisConfig dac;
    dac.glitch_threshold = cfg.glitch_threshold >= 0.0
                               ? cfg.glitch_threshold
                               : delays.glitch_threshold();
    dac.horizon = sta.clock_period * 1.02;
    dac.num_threads = cfg.num_threads;
    std::vector<FaultRanges> ranges;
    DetectionCounters detection;
    {
        const SpanLog::Scope span(log, "sim.pass_a");
        const WaveSim wave_sim(nl, delays, cfg.wave);
        const DetectionAnalyzer analyzer(wave_sim, tests.patterns,
                                         placement.monitored, dac);
        std::vector<DelayFault> faults;
        faults.reserve(simulated.size());
        for (FaultId id : simulated) faults.push_back(universe.fault(id));
        ranges = analyzer.analyze(faults);
        detection += analyzer.counters();
        if (analyzer.interrupted()) out.failures.push_back("pass A interrupted");
    }
    const Interval window = fast_window(sta.clock_period, cfg.fmax_factor);
    const auto full_in_window = [&](std::size_t i) {
        IntervalSet full =
            full_detection_range(ranges[i], placement.config_delays);
        full.clip(window.lo, window.hi);
        return full;
    };
    const auto ff_in_window = [&](std::size_t i) {
        IntervalSet ff = ranges[i].ff;
        ff.clip(window.lo, window.hi);
        return ff;
    };
    std::vector<std::uint32_t> targets;
    {
        const SpanLog::Scope span(log, "monitor.shift");
        for (std::uint32_t i = 0; i < ranges.size(); ++i) {
            if (full_in_window(i).empty()) continue;
            if (detects_at_speed(
                    full_detection_range(ranges[i], placement.config_delays),
                    sta.clock_period)) {
                continue;
            }
            targets.push_back(i);
        }
    }

    // --- run(): Table I, frequency selection, pass B, schedules ------
    const auto scaled = [sample_scale](std::size_t n) {
        return static_cast<std::size_t>(
            std::llround(sample_scale * static_cast<double>(n)));
    };
    {
        std::size_t conv = 0;
        std::size_t prop = 0;
        std::size_t at_speed_monitor = 0;
        for (std::uint32_t i = 0; i < ranges.size(); ++i) {
            if (!ff_in_window(i).empty()) ++conv;
            if (full_in_window(i).empty()) continue;
            ++prop;
            if (detects_at_speed(
                    full_detection_range(ranges[i], placement.config_delays),
                    sta.clock_period)) {
                ++at_speed_monitor;
            }
        }
        res.detected_conv = scaled(conv);
        res.detected_prop = scaled(prop);
        res.monitor_at_speed = scaled(at_speed_monitor);
        res.target_faults = scaled(targets.size());
        res.gain_percent = conv == 0 ? 0.0
                                     : (static_cast<double>(prop) /
                                            static_cast<double>(conv) -
                                        1.0) *
                                           100.0;
    }

    FrequencySelection sel_prop;
    std::vector<Time> all_periods;
    std::vector<FrequencySelection> cov_selections;
    FrequencySelectOptions fopts;
    fopts.discretize = cfg.discretize;
    fopts.solver = cfg.solver;
    fopts.method = SelectMethod::BranchAndBound;
    std::vector<IntervalSet> target_ranges;
    {
        const SpanLog::Scope span(log, "schedule.freq_select");
        std::vector<IntervalSet> conv_ranges(ranges.size());
        for (std::uint32_t i = 0; i < ranges.size(); ++i) {
            conv_ranges[i] = ff_in_window(i);
        }
        res.freq_conv = select_frequencies(conv_ranges, fopts).periods.size();
        for (std::uint32_t pos : targets) {
            target_ranges.push_back(full_in_window(pos));
        }
        FrequencySelectOptions heur_opts = fopts;
        heur_opts.method = SelectMethod::Greedy;
        res.freq_heur =
            select_frequencies(target_ranges, heur_opts).periods.size();
        sel_prop = select_frequencies(target_ranges, fopts);
        res.freq_prop = sel_prop.periods.size();
        res.freq_reduction_percent =
            res.freq_conv == 0
                ? 0.0
                : (1.0 - static_cast<double>(res.freq_prop) /
                             static_cast<double>(res.freq_conv)) *
                      100.0;
        all_periods = sel_prop.periods;
        for (double cov : cfg.coverage_targets) {
            FrequencySelectOptions copts = fopts;
            copts.coverage = cov;
            cov_selections.push_back(select_frequencies(target_ranges, copts));
            for (Time t : cov_selections.back().periods) {
                all_periods.push_back(t);
            }
        }
        std::sort(all_periods.begin(), all_periods.end());
        all_periods.erase(std::unique(all_periods.begin(), all_periods.end(),
                                      [](Time a, Time b) {
                                          return std::abs(a - b) <= kTimeEps;
                                      }),
                          all_periods.end());
    }

    std::vector<DelayFault> target_faults;
    std::vector<DetectionEntry> all_entries;
    {
        const SpanLog::Scope span(log, "sim.pass_b");
        std::vector<FaultRanges> target_fault_ranges;
        for (std::uint32_t pos : targets) {
            target_faults.push_back(universe.fault(simulated[pos]));
            target_fault_ranges.push_back(ranges[pos]);
        }
        const WaveSim wave_sim(nl, delays, cfg.wave);
        const DetectionAnalyzer analyzer(wave_sim, tests.patterns,
                                         placement.monitored, dac);
        all_entries = analyzer.detection_table(target_faults,
                                               target_fault_ranges,
                                               all_periods,
                                               placement.config_delays);
        detection += analyzer.counters();
        if (analyzer.interrupted()) out.failures.push_back("pass B interrupted");
    }
    res.detection = detection;

    // Restricts the pass-B table to one period subset (remapped).
    const auto entries_for = [&](std::span<const Time> periods) {
        std::vector<std::uint16_t> remap(all_periods.size(), UINT16_MAX);
        for (std::uint16_t j = 0; j < periods.size(); ++j) {
            for (std::uint16_t k = 0; k < all_periods.size(); ++k) {
                if (std::abs(all_periods[k] - periods[j]) <= kTimeEps) {
                    remap[k] = j;
                    break;
                }
            }
        }
        std::vector<DetectionEntry> kept;
        for (DetectionEntry e : all_entries) {
            if (e.period < remap.size() && remap[e.period] != UINT16_MAX) {
                e.period = remap[e.period];
                kept.push_back(e);
            }
        }
        return kept;
    };

    const std::size_t num_configs = placement.config_delays.size();
    PatternConfigOptions pco;
    pco.method = SelectMethod::BranchAndBound;
    pco.solver = cfg.solver;
    {
        const SpanLog::Scope span(log, "schedule.pattern_config");
        std::vector<std::uint32_t> all_targets(target_faults.size());
        for (std::uint32_t i = 0; i < all_targets.size(); ++i) {
            all_targets[i] = i;
        }
        const std::vector<DetectionEntry> entries =
            entries_for(sel_prop.periods);
        const PatternConfigResult pc = select_pattern_configs(
            entries, sel_prop.periods, all_targets, pco);
        res.orig_pc = tests.size() * num_configs * sel_prop.periods.size();
        res.opti_pc = pc.schedule.size();
        res.pc_reduction_percent =
            schedule_reduction_percent(res.opti_pc, res.orig_pc);
        res.schedule_proven_optimal =
            pc.proven_optimal && sel_prop.proven_optimal;
        res.schedule_uncovered = pc.uncovered_faults.size();

        // Output check: the schedule covers every target the pass-B
        // table says is coverable.
        std::vector<std::uint32_t> coverable;
        std::set_difference(all_targets.begin(), all_targets.end(),
                            pc.uncovered_faults.begin(),
                            pc.uncovered_faults.end(),
                            std::back_inserter(coverable));
        const ScheduleValidation v =
            validate_schedule(pc.schedule, entries, coverable);
        if (!v.valid) {
            out.failures.push_back(
                "schedule leaves " + std::to_string(v.uncovered_faults.size()) +
                " coverable target faults uncovered");
        }

        for (std::size_t k = 0; k < cfg.coverage_targets.size(); ++k) {
            const FrequencySelection& sel = cov_selections[k];
            CoverageRow row;
            row.coverage = cfg.coverage_targets[k];
            row.num_frequencies = sel.periods.size();
            row.naive_pc = tests.size() * num_configs * sel.periods.size();
            std::vector<bool> in_cover(target_faults.size(), false);
            for (const auto& covered : sel.covered) {
                for (std::uint32_t fi : covered) in_cover[fi] = true;
            }
            std::vector<std::uint32_t> cov_targets;
            for (std::uint32_t i = 0; i < in_cover.size(); ++i) {
                if (in_cover[i]) cov_targets.push_back(i);
            }
            const PatternConfigResult cpc = select_pattern_configs(
                entries_for(sel.periods), sel.periods, cov_targets, pco);
            row.schedule_size = cpc.schedule.size();
            row.reduction_percent =
                schedule_reduction_percent(row.schedule_size, row.naive_pc);
            res.coverage_rows.push_back(row);
        }
    }
    flow_span.reset();
    out.wall_s = seconds_between(t_start, Clock::now());
    out.exact = counters.exact();

    res.circuit = nl.name();
    res.num_gates = nl.num_comb_gates();
    res.num_ffs = nl.flip_flops().size();
    res.num_patterns = tests.size();
    res.num_monitors = placement.num_monitors();
    res.fault_universe = universe.size();
    res.at_speed_detectable = structural.num_at_speed;
    res.timing_redundant = structural.num_redundant;
    res.candidate_faults = structural.num_candidates;
    res.simulated_faults = simulated.size();
    res.clock_period = sta.clock_period;
    res.t_min = sta.clock_period / cfg.fmax_factor;
    finish(out, res, tests);

    // --- per-layer metrics --------------------------------------------
    Values& m = out.layers;
    m["timing.sta_s"] = log.wall("timing.sta");
    m["monitor.place_s"] = log.wall("monitor.place");
    m["fault.classify_s"] = log.wall("fault.classify");
    m["fault.simulated"] = static_cast<double>(simulated.size());
    m["atpg.generate_s"] = log.wall("atpg.generate");
    m["atpg.cpu_s"] = log.cpu("atpg.generate");
    m["atpg.patterns"] = static_cast<double>(ar.test_set.size());
    m["atpg.random_batches"] = counters.delta("atpg.random_batches");
    m["atpg.backtracks"] = counters.delta("atpg.backtracks");
    m["atpg.aborted"] = static_cast<double>(ar.num_aborted);
    m["atpg.untestable"] = static_cast<double>(ar.num_untestable);
    m["atpg.detect_ratio"] =
        ar.num_faults == 0 ? 0.0 : ar.coverage();
    const double pass_a = log.wall("sim.pass_a");
    const double pass_b = log.wall("sim.pass_b");
    m["sim.pass_a_s"] = pass_a;
    m["sim.pass_b_s"] = pass_b;
    m["sim.cpu_s"] = log.cpu("sim.pass_a") + log.cpu("sim.pass_b");
    m["sim.pairs_total"] = static_cast<double>(detection.pairs_total);
    m["sim.pairs_simulated"] = static_cast<double>(detection.pairs_simulated);
    m["sim.pairs_detected"] = static_cast<double>(detection.pairs_detected);
    m["sim.gates_reevaluated"] =
        static_cast<double>(detection.gates_reevaluated);
    m["sim.good_wave_sims"] = static_cast<double>(detection.good_wave_sims);
    m["sim.cones_cached"] = static_cast<double>(detection.cones_cached);
    m["sim.screen_ratio"] =
        detection.pairs_total == 0
            ? 0.0
            : static_cast<double>(detection.pairs_screened_out) /
                  static_cast<double>(detection.pairs_total);
    m["sim.detect_yield"] =
        detection.pairs_simulated == 0
            ? 0.0
            : static_cast<double>(detection.pairs_detected) /
                  static_cast<double>(detection.pairs_simulated);
    m["schedule.freq_select_s"] = log.wall("schedule.freq_select");
    m["schedule.pattern_config_s"] = log.wall("schedule.pattern_config");
    m["schedule.detection_entries"] = static_cast<double>(all_entries.size());
    const double raw = counters.delta("schedule.discretize.raw_candidates");
    m["schedule.discretize_keep_ratio"] =
        raw == 0.0
            ? 0.0
            : counters.delta("schedule.discretize.kept_candidates") / raw;
    const double solves = out.exact["opt.set_cover.solves"];
    const double exhausted = out.exact["opt.set_cover.budget_exhausted"];
    m["opt.set_cover.solves"] = solves;
    m["opt.set_cover.nodes"] = out.exact["opt.set_cover.nodes"];
    m["opt.set_cover.budget_exhausted"] = exhausted;
    m["opt.exhausted_ratio"] = solves == 0.0 ? 0.0 : exhausted / solves;
    // The detection pools are private to DetectionAnalyzer; their busy
    // time is the CPU time of the pass-A/B task bodies.
    const double busy = detection.good_wave_seconds +
                        detection.fault_sim_seconds;
    m["util.pool.busy_s"] = busy;
    m["util.pool.utilization"] =
        busy / (static_cast<double>(kThreads) * out.wall_s);
    m["out.tdf_coverage"] = res.atpg_coverage;
    m["out.test_patterns"] = static_cast<double>(res.num_patterns);
    m["out.hdf_detected_prop"] = hdf_detected_prop(res);
    m["out.schedule_freqs"] = static_cast<double>(res.freq_prop);
    m["out.schedule_pairs"] = static_cast<double>(res.opti_pc);
    return out;
}

}  // namespace

std::unique_ptr<Workload> make_flow_workload(const std::string& name,
                                             std::uint64_t seed) {
    if (name == "flow_s9234") {
        return std::make_unique<FlowWorkload>("s9234", 0, false, seed);
    }
    if (name == "detect_s38417") {
        return std::make_unique<FlowWorkload>("s38417", 3500, true, seed);
    }
    return nullptr;
}

}  // namespace fmbench
