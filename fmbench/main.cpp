// fmbench: the fastmon benchmark.
//
//   fmbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//           [--trace-out <path>]
//
// Workloads: flow_s9234, detect_s38417, campaign_s38417 (see README.md).
// With --trace 0 fmbench repeats a burst of set-ups followed by one
// timed run through the library's one-call entry point until --seconds
// of run time is measured, and prints the end-to-end metrics.  With
// --trace 1 it repeats pairs of one untraced run and one stage-by-stage
// traced run instead and prints the per-layer metrics.  Every run's
// outputs are checked; the last line of stdout is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace fmbench {
namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MB"},
    {"quality", "fraction"},
};

constexpr MetricDef kPerLayer[] = {
    {"netlist.generate_s", "s"},
    {"timing.sta_s", "s"},
    {"monitor.place_s", "s"},
    {"fault.classify_s", "s"},
    {"fault.simulated", "count"},
    {"atpg.generate_s", "s"},
    {"atpg.cpu_s", "s"},
    {"atpg.patterns", "count"},
    {"atpg.random_batches", "count"},
    {"atpg.backtracks", "count"},
    {"atpg.aborted", "count"},
    {"atpg.untestable", "count"},
    {"atpg.detect_ratio", "ratio"},
    {"sim.pass_a_s", "s"},
    {"sim.pass_b_s", "s"},
    {"sim.cpu_s", "s"},
    {"sim.pairs_total", "count"},
    {"sim.pairs_simulated", "count"},
    {"sim.pairs_detected", "count"},
    {"sim.gates_reevaluated", "count"},
    {"sim.good_wave_sims", "count"},
    {"sim.cones_cached", "count"},
    {"sim.screen_ratio", "ratio"},
    {"sim.detect_yield", "ratio"},
    {"schedule.freq_select_s", "s"},
    {"schedule.pattern_config_s", "s"},
    {"schedule.detection_entries", "count"},
    {"schedule.discretize_keep_ratio", "ratio"},
    {"opt.set_cover.solves", "count"},
    {"opt.set_cover.nodes", "count"},
    {"opt.set_cover.budget_exhausted", "count"},
    {"opt.exhausted_ratio", "ratio"},
    {"campaign.sample_s", "s"},
    {"campaign.roll_s", "s"},
    {"campaign.aggregate_s", "s"},
    {"campaign.batches", "count"},
    {"campaign.lane_years", "count"},
    {"campaign.settle_ratio", "ratio"},
    {"timing.batch_sta_passes", "count"},
    {"timing.batch_sta_lane_loads", "count"},
    {"util.pool.busy_s", "s"},
    {"util.pool.utilization", "ratio"},
    {"util.pool.tasks_executed", "count"},
    {"util.pool.tasks_stolen", "count"},
    {"trace.overhead_s", "s"},
    {"out.tdf_coverage", "fraction"},
    {"out.test_patterns", "count"},
    {"out.hdf_detected_prop", "fraction"},
    {"out.schedule_freqs", "count"},
    {"out.schedule_pairs", "count"},
    {"out.roc_auc", "fraction"},
};

/// Workload name -> seed used when --seed is not given.
struct WorkloadDef {
    const char* name;
    std::uint64_t default_seed;
};

constexpr WorkloadDef kWorkloads[] = {
    {"flow_s9234", 9234},  // the s9234 profile seed: the benches' ATPG seed
    {"detect_s38417", 99},
    {"campaign_s38417", 7},
};

/// Set-ups run in bursts before every run and once after the last, so
/// that setup_s samples the same stretch of time as run_s.  A burst
/// repeats until both floors are met (or the cap is hit); setup_s is
/// the median over all bursts.
constexpr std::size_t kBurstMinSetups = 3;
constexpr std::size_t kBurstMaxSetups = 50;
constexpr double kBurstMinSeconds = 0.1;

struct Args {
    std::string workload;
    std::optional<std::uint64_t> seed;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
    std::cerr << "fmbench: " << error << "\n"
              << "usage: fmbench --workload <flow_s9234|detect_s38417|"
                 "campaign_s38417> [--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out PATH]\n";
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                a.workload = value;
            } else if (key == "--seed") {
                a.seed = std::stoull(value);
            } else if (key == "--seconds") {
                a.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                a.trace = value == "1";
            } else if (key == "--trace-out") {
                a.trace_out = value;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    return a;
}

/// Unit of a listed metric; throws on a name missing from the tables.
const char* unit_of(const std::string& name) {
    for (const auto table : {std::span<const MetricDef>(kEndToEnd),
                             std::span<const MetricDef>(kPerLayer)}) {
        for (const MetricDef& d : table) {
            if (name == d.name) return d.unit;
        }
    }
    throw std::logic_error("unlisted metric " + name);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Attempted/failed bookkeeping over the runs of one invocation: every
/// run must pass its own checks and reproduce the first run's
/// fingerprint and exact work counters.
class RunChecker {
public:
    void check(const RunOutcome& r, const char* label) {
        ++attempted_;
        std::vector<std::string> failures = r.failures;
        if (!reference_) {
            reference_ = r;
        } else {
            if (r.fingerprint != reference_->fingerprint) {
                failures.push_back("outputs differ from the first run (" +
                                   fingerprint_hash(r) + " vs " +
                                   fingerprint_hash(*reference_) + ")");
            }
            if (r.exact != reference_->exact) {
                failures.push_back("exact work counters differ from the "
                                   "first run");
            }
        }
        if (failures.empty()) return;
        ++failed_;
        for (const std::string& f : failures) {
            std::cerr << "fmbench: " << label << " run " << attempted_
                      << " FAILED: " << f << '\n';
        }
    }

    [[nodiscard]] int attempted() const { return attempted_; }
    [[nodiscard]] int failed() const { return failed_; }

private:
    static std::string fingerprint_hash(const RunOutcome& r) {
        return std::to_string(fnv1a(r.fingerprint));
    }

    std::optional<RunOutcome> reference_;
    int attempted_ = 0;
    int failed_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
    if (name == "campaign_s38417") return make_campaign_workload(seed);
    return make_flow_workload(name, seed);
}

int run(const Args& args) {
    const WorkloadDef* def = nullptr;
    for (const WorkloadDef& w : kWorkloads) {
        if (args.workload == w.name) def = &w;
    }
    if (def == nullptr) usage("unknown workload " + args.workload);
    const std::uint64_t seed = args.seed.value_or(def->default_seed);
    fastmon::set_log_level(fastmon::LogLevel::Warn);
    const std::unique_ptr<Workload> workload = make_workload(def->name, seed);

    std::vector<double> setup_s;
    std::vector<double> generate_s;
    const auto setup_burst = [&] {
        double total = 0.0;
        for (std::size_t n = 0;
             n < kBurstMinSetups ||
             (total < kBurstMinSeconds && n < kBurstMaxSetups);
             ++n) {
            const auto t0 = Clock::now();
            generate_s.push_back(workload->setup());
            setup_s.push_back(seconds_between(t0, Clock::now()));
            total += setup_s.back();
        }
    };

    RunChecker checker;
    std::vector<std::pair<std::string, double>> metrics;
    double measured = 0.0;
    if (!args.trace) {
        std::vector<double> run_s;
        double quality = 0.0;
        double rss_mb = 0.0;
        while (run_s.empty() || measured < args.seconds) {
            setup_burst();
            const RunOutcome r = workload->run();
            // Peak memory of set-up plus one run: later runs only add
            // allocator fragmentation, which depends on the run count.
            if (run_s.empty()) rss_mb = peak_rss_mb();
            checker.check(r, "untraced");
            std::cerr << "fmbench: run " << checker.attempted() << ": "
                      << r.wall_s << " s\n";
            measured += r.wall_s;
            run_s.push_back(r.wall_s);
            quality = r.quality;
        }
        setup_burst();
        metrics = {{"setup_s", median(setup_s)},
                   {"run_s", median(run_s)},
                   {"peak_rss_mb", rss_mb},
                   {"quality", quality}};
    } else {
        std::map<std::string, std::vector<double>> layers;
        std::vector<double> untraced_s;
        std::vector<double> traced_s;
        SpanLog last_log;
        while (untraced_s.empty() || measured < args.seconds) {
            setup_burst();
            const RunOutcome u = workload->run();
            checker.check(u, "untraced");
            SpanLog log;
            RunOutcome t = workload->run_traced(log);
            if (t.fingerprint != u.fingerprint) {
                t.failures.push_back(
                    "stage-by-stage outputs differ from the single-call run");
            }
            checker.check(t, "traced");
            measured += u.wall_s + t.wall_s;
            untraced_s.push_back(u.wall_s);
            traced_s.push_back(t.wall_s);
            for (const auto& [name, value] : t.layers) {
                layers[name].push_back(value);
            }
            last_log = std::move(log);
        }
        setup_burst();
        layers["netlist.generate_s"] = generate_s;
        layers["trace.overhead_s"] = {median(traced_s) - median(untraced_s)};
        for (const auto& [name, values] : layers) unit_of(name);  // listed?
        // A layer the workload does not exercise did no work: 0.
        for (const MetricDef& d : kPerLayer) {
            const auto it = layers.find(d.name);
            metrics.emplace_back(d.name,
                                 it == layers.end() ? 0.0 : median(it->second));
        }
        if (!args.trace_out.empty() &&
            !last_log.write_chrome_trace(args.trace_out)) {
            std::cerr << "fmbench: cannot write " << args.trace_out << '\n';
        }
    }

    fastmon::Json out_metrics = fastmon::Json::object();
    for (const auto& [name, value] : metrics) {
        const char* unit = unit_of(name);
        std::cerr << "fmbench: " << args.workload << ' ' << name << " = "
                  << value << ' ' << unit << '\n';
        fastmon::Json m = fastmon::Json::object();
        m.set("value", value);
        m.set("unit", unit);
        out_metrics.set(name, std::move(m));
    }
    const bool correct = checker.failed() == 0;
    fastmon::Json result = fastmon::Json::object();
    result.set("correct", correct);
    result.set("attempted", checker.attempted());
    result.set("failed", checker.failed());
    result.set("metrics", std::move(out_metrics));
    std::cout << result.dump() << std::endl;
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace fmbench

int main(int argc, char** argv) {
    const fmbench::Args args = fmbench::parse_args(argc, argv);
    try {
        return fmbench::run(args);
    } catch (const std::exception& e) {
        std::cerr << "fmbench: error: " << e.what() << '\n';
        return 1;
    }
}
