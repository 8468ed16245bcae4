// Campaign engine: population sampling, device rollout, aggregation,
// the determinism contract (thread counts, widths, cancellation), the
// roll_device reference oracle, and the campaign CLI's argument checks.
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "monitor/placement.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "netlist/netlist_io.hpp"
#include "timing/batch_sta_engine.hpp"
#include "timing/sta.hpp"
#include "timing/sta_engine.hpp"
#include "util/cancel.hpp"
#include "util/diagnostic.hpp"
#include "util/json.hpp"
#include "util/subprocess.hpp"
#include "wearout/mission.hpp"
#include "wearout/wearout.hpp"

namespace fastmon {
namespace {

PopulationModel test_model() {
    PopulationModel model;
    model.defect.incidence = 0.3;
    return model;
}

TEST(YearGrid, UniformFromZero) {
    const std::vector<double> grid = make_year_grid(2.0, 0.5);
    ASSERT_EQ(grid.size(), 5u);
    EXPECT_DOUBLE_EQ(grid.front(), 0.0);
    EXPECT_DOUBLE_EQ(grid[1], 0.5);
    EXPECT_DOUBLE_EQ(grid.back(), 2.0);
    // i * step, not repeated addition: no drift at fine steps.
    const std::vector<double> fine = make_year_grid(15.0, 0.25);
    EXPECT_DOUBLE_EQ(fine[33], 33 * 0.25);
}

TEST(YearGrid, RejectsDegenerateParameters) {
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(make_year_grid(kNan, 0.25), Diagnostic);
    EXPECT_THROW(make_year_grid(kInf, 0.25), Diagnostic);
    EXPECT_THROW(make_year_grid(-1.0, 0.25), Diagnostic);
    EXPECT_THROW(make_year_grid(10.0, kNan), Diagnostic);
    EXPECT_THROW(make_year_grid(10.0, kInf), Diagnostic);
    EXPECT_THROW(make_year_grid(10.0, 0.0), Diagnostic);
    EXPECT_THROW(make_year_grid(10.0, -0.5), Diagnostic);
    // A step larger than a positive horizon would silently degrade the
    // sweep to the single deployment point.
    EXPECT_THROW(make_year_grid(2.0, 5.0), Diagnostic);
    try {
        make_year_grid(10.0, 0.0);
        FAIL() << "expected a Diagnostic";
    } catch (const Diagnostic& d) {
        EXPECT_EQ(d.source(), "campaign");
        EXPECT_NE(std::string(d.what()).find("step"), std::string::npos);
    }
    // A zero horizon is valid (deployment-only grid), any step goes.
    EXPECT_EQ(make_year_grid(0.0, 5.0).size(), 1u);
}

TEST(Population, SampleIsDeterministicPerIndex) {
    const Netlist nl = make_mini_alu();
    const std::vector<GateId> sites = combinational_sites(nl);
    const PopulationModel model = test_model();
    const DeviceSample a = sample_device(model, 7, 3, sites, 200.0);
    const DeviceSample b = sample_device(model, 7, 3, sites, 200.0);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_DOUBLE_EQ(a.aging.amplitude, b.aging.amplitude);
    ASSERT_EQ(a.defects.size(), b.defects.size());
    for (std::size_t i = 0; i < a.defects.size(); ++i) {
        EXPECT_EQ(a.defects[i].site, b.defects[i].site);
        EXPECT_DOUBLE_EQ(a.defects[i].delta0, b.defects[i].delta0);
        EXPECT_DOUBLE_EQ(a.defects[i].growth_per_year,
                         b.defects[i].growth_per_year);
    }
    const DeviceSample other = sample_device(model, 7, 4, sites, 200.0);
    EXPECT_NE(a.seed, other.seed);
}

TEST(Population, IncidenceBoundsAndDefectRanges) {
    const Netlist nl = make_mini_alu();
    const std::vector<GateId> sites = combinational_sites(nl);
    constexpr Time kClock = 200.0;

    PopulationModel clean = test_model();
    clean.defect.incidence = 0.0;
    PopulationModel always = test_model();
    always.defect.incidence = 1.0;

    std::size_t marginal = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
        EXPECT_FALSE(sample_device(clean, 1, i, sites, kClock).marginal());
        const DeviceSample d = sample_device(always, 1, i, sites, kClock);
        EXPECT_TRUE(d.marginal());
        marginal += d.marginal();
        EXPECT_LE(d.defects.size(), always.defect.max_defects);
        for (const MarginalDefect& defect : d.defects) {
            EXPECT_TRUE(std::any_of(
                sites.begin(), sites.end(),
                [&](GateId g) { return g == defect.site.gate; }));
            EXPECT_GT(defect.delta0, 0.0);
            EXPECT_GE(defect.growth_per_year, always.defect.growth_min);
            EXPECT_LE(defect.growth_per_year, always.defect.growth_max);
            EXPECT_DOUBLE_EQ(defect.delta_max,
                             always.defect.delta_max_fraction * kClock);
        }
    }
    EXPECT_EQ(marginal, 64u);
}

TEST(Population, AgingAmplitudeJittersAroundNominal) {
    const Netlist nl = make_mini_alu();
    const std::vector<GateId> sites = combinational_sites(nl);
    const PopulationModel model = test_model();
    RunningStats amplitudes;
    for (std::uint32_t i = 0; i < 256; ++i) {
        const DeviceSample d = sample_device(model, 3, i, sites, 200.0);
        EXPECT_GT(d.aging.amplitude, 0.0);
        amplitudes.add(d.aging.amplitude);
    }
    // Lognormal jitter spreads the population but keeps the nominal
    // scale (median = nominal amplitude).
    EXPECT_GT(amplitudes.stddev(), 0.01);
    EXPECT_NEAR(amplitudes.mean(), model.aging.nominal.amplitude, 0.15);
}

struct CampaignFixture : ::testing::Test {
    Netlist nl = make_mini_alu();

    CampaignConfig small_config() const {
        CampaignConfig config;
        config.population = 24;
        config.seed = 11;
        config.model = test_model();
        config.num_threads = 1;
        return config;
    }
};

TEST_F(CampaignFixture, RolloutOutcomesAreWellFormed) {
    const CampaignConfig config = small_config();
    const CampaignResult result = run_campaign(nl, config);
    ASSERT_EQ(result.outcomes.size(), config.population);
    EXPECT_TRUE(result.status.complete());
    EXPECT_GT(result.num_monitors, 0u);
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        const DeviceOutcome& out = result.outcomes[i];
        EXPECT_EQ(out.index, i);
        // One first-alert entry per monitor configuration; config 0
        // (monitors off) never alerts.
        ASSERT_GE(out.first_alert_years.size(), 2u);
        EXPECT_DOUBLE_EQ(out.first_alert_years[0], -1.0);
        EXPECT_GT(out.margin_used_t0, 0.0);
        EXPECT_LT(out.margin_used_t0, 1.0);
        EXPECT_GE(out.screen_score, 0.0);
        if (out.failure_years >= 0.0) {
            EXPECT_LE(out.failure_years, config.horizon_years);
        }
    }
}

TEST_F(CampaignFixture, ThreadCountDoesNotChangeTheAggregate) {
    CampaignConfig serial = small_config();
    CampaignConfig dedicated = small_config();
    dedicated.num_threads = 3;
    CampaignConfig shared = small_config();
    shared.num_threads = 0;

    const CampaignResult a = run_campaign(nl, serial);
    const CampaignResult b = run_campaign(nl, dedicated);
    const CampaignResult c = run_campaign(nl, shared);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.outcomes, c.outcomes);
    // The deterministic report blocks ("campaign" and "aggregate" — the
    // "run" block carries wall times) are bit-identical.
    const Json ja = a.to_json(serial);
    const Json jb = b.to_json(dedicated);
    for (const char* block : {"campaign", "aggregate"}) {
        ASSERT_NE(ja.find(block), nullptr);
        ASSERT_NE(jb.find(block), nullptr);
        EXPECT_EQ(ja.find(block)->dump(2), jb.find(block)->dump(2));
    }
}

TEST_F(CampaignFixture, BadGridFailsPrepareButReturnsHonestStatus) {
    // run_campaign must not leak the Diagnostic: campaign_prepare
    // records Failed, the downstream phases are Skipped, and the
    // result reports incomplete instead of crashing the campaign CLI.
    CampaignConfig config = small_config();
    config.step_years = 0.0;
    const CampaignResult result = run_campaign(nl, config);
    EXPECT_FALSE(result.status.complete());
    EXPECT_TRUE(result.outcomes.empty());
    ASSERT_FALSE(result.status.phases.empty());
    EXPECT_EQ(result.status.phases.front().name, "campaign_prepare");
    EXPECT_EQ(result.status.phases.front().outcome, PhaseOutcome::Failed);
}

TEST_F(CampaignFixture, BatchedMatchesScalarAcrossWidthsBitwise) {
    // The batched SoA engine must give bit-identical outcomes at every
    // runtime width (1 = one-lane batches; 4 and the compiled default
    // exercise full and clamped batches, plus a ragged tail at
    // population 24).
    CampaignConfig one_lane = small_config();
    one_lane.batch_width = 1;
    const CampaignResult reference = run_campaign(nl, one_lane);
    const Json jref = reference.to_json(one_lane);

    for (const std::size_t width : {std::size_t{4}, std::size_t{0}}) {
        CampaignConfig batched = small_config();
        batched.batch_width = width;
        const CampaignResult result = run_campaign(nl, batched);
        EXPECT_EQ(result.outcomes, reference.outcomes) << "width " << width;
        const Json jb = result.to_json(batched);
        for (const char* block : {"campaign", "aggregate"}) {
            ASSERT_NE(jb.find(block), nullptr);
            EXPECT_EQ(jb.find(block)->dump(2), jref.find(block)->dump(2))
                << "width " << width;
        }
        // Run-block bookkeeping: the resolved width.
        const Json* run = jb.find("run");
        ASSERT_NE(run, nullptr);
        const std::size_t resolved = width == 0 ? kBatchWidth : width;
        EXPECT_EQ(static_cast<std::size_t>(
                      run->find("batch_width")->as_number()),
                  std::min(resolved, kBatchWidth));
    }
    ASSERT_NE(jref.find("run"), nullptr);
    EXPECT_EQ(jref.find("run")->find("batch_width")->as_number(), 1.0);
}

TEST_F(CampaignFixture, BatchedMultiWorkerMatchesSerialScalar) {
    // Batched shards on a real pool (TSan job covers this test too):
    // worker count must not leak into outcomes or aggregate blocks.
    CampaignConfig one_lane = small_config();
    one_lane.batch_width = 1;
    CampaignConfig batched_pool = small_config();
    batched_pool.num_threads = 3;
    batched_pool.batch_width = 0;  // compiled width

    const CampaignResult a = run_campaign(nl, one_lane);
    const CampaignResult b = run_campaign(nl, batched_pool);
    EXPECT_EQ(a.outcomes, b.outcomes);
    const Json ja = a.to_json(one_lane);
    const Json jb = b.to_json(batched_pool);
    for (const char* block : {"campaign", "aggregate"}) {
        EXPECT_EQ(ja.find(block)->dump(2), jb.find(block)->dump(2));
    }
}

TEST_F(CampaignFixture, ScreenScorePredictsEarlyFailures) {
    // A statistically meaningful population: the burn-in screen score
    // must rank actual early-life failures above survivors clearly
    // better than chance (this is the paper's core claim).
    CampaignConfig config = small_config();
    config.population = 200;
    const CampaignResult result = run_campaign(nl, config);
    const CampaignAggregate& agg = result.aggregate;
    ASSERT_GT(agg.classification.positives, 0u);
    ASSERT_GT(agg.classification.negatives, 0u);
    EXPECT_GT(agg.classification.roc_auc, 0.6);
    // Marginal devices exist at ~incidence rate.
    EXPECT_NEAR(static_cast<double>(agg.marginal) / 200.0,
                config.model.defect.incidence, 0.1);
}

TEST_F(CampaignFixture, CancelledCampaignReturnsHonestPartialResult) {
    CancelToken::global().cancel(CancelCause::Test);
    const CampaignConfig config = small_config();
    const CampaignResult result = run_campaign(nl, config);
    CancelToken::global().reset();

    EXPECT_TRUE(result.status.cancelled);
    EXPECT_EQ(result.status.cancel_cause, CancelCause::Test);
    EXPECT_FALSE(result.status.complete());
    EXPECT_LT(result.devices_completed, config.population);
    const PhaseStatus* rollout = result.status.find("campaign_rollout");
    ASSERT_NE(rollout, nullptr);
    EXPECT_EQ(rollout->outcome, PhaseOutcome::Degraded);
    // The aggregate covers exactly the completed prefix.
    EXPECT_EQ(result.aggregate.population, result.devices_completed);
}

TEST(Aggregate, CountsAndOperatingPoint) {
    // Hand-built outcomes: two true early failures (one screened, one
    // missed), one false alarm, one clean survivor.
    DeviceOutcome caught;
    caught.index = 0;
    caught.marginal = true;
    caught.screen_score = 1.8;
    caught.failure_years = 1.0;
    caught.first_alert_years = {-1.0, 0.25, 0.5};
    DeviceOutcome missed;
    missed.index = 1;
    missed.marginal = true;
    missed.screen_score = 0.0;
    missed.failure_years = 2.0;
    missed.first_alert_years = {-1.0, 1.0, 1.5};
    DeviceOutcome false_alarm;
    false_alarm.index = 2;
    false_alarm.screen_score = 1.1;
    false_alarm.failure_years = 12.0;  // wear-out, not early
    false_alarm.first_alert_years = {-1.0, 10.0, 11.0};
    DeviceOutcome survivor;
    survivor.index = 3;
    survivor.screen_score = 0.0;
    survivor.first_alert_years = {-1.0, -1.0, -1.0};

    const std::vector<DeviceOutcome> outcomes{caught, missed, false_alarm,
                                              survivor};
    const CampaignAggregate agg =
        aggregate_outcomes(outcomes, AggregateConfig{3.0});

    EXPECT_EQ(agg.population, 4u);
    EXPECT_EQ(agg.marginal, 2u);
    EXPECT_EQ(agg.failed, 3u);
    EXPECT_EQ(agg.early_failures, 2u);
    EXPECT_EQ(agg.survived, 1u);
    EXPECT_EQ(agg.classification.positives, 2u);
    EXPECT_EQ(agg.classification.negatives, 2u);
    EXPECT_EQ(agg.classification.true_positives, 1u);
    EXPECT_EQ(agg.classification.false_positives, 1u);
    EXPECT_EQ(agg.classification.false_negatives, 1u);
    EXPECT_EQ(agg.classification.true_negatives, 1u);
    EXPECT_DOUBLE_EQ(agg.classification.precision, 0.5);
    EXPECT_DOUBLE_EQ(agg.classification.recall, 0.5);
    // Lead times: only devices with both an alert and a failure count.
    EXPECT_EQ(agg.lead_time_imminent.count, 3u);
    // caught: 1.0 - 0.25 = 0.75 on the widest band ladder entry.
    EXPECT_GT(agg.lead_time_wide.mean, 0.0);
    // Wear-out curve covers the failed non-marginal devices only.
    EXPECT_EQ(agg.wearout_failure_years.count, 1u);
    EXPECT_DOUBLE_EQ(agg.wearout_failure_years.p50, 12.0);
}

TEST(Aggregate, CsvHasHeaderAndOneRowPerOutcome) {
    DeviceOutcome out;
    out.index = 5;
    out.marginal = true;
    out.first_alert_years = {-1.0, 2.0, 3.0};
    out.failure_years = 4.0;
    const std::string csv = outcomes_csv(std::vector<DeviceOutcome>{out});
    EXPECT_NE(csv.find("index,marginal,"), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
    EXPECT_NE(csv.find("\n5,1,"), std::string::npos);
}

TEST(Aggregate, EmptyPopulationIsSafe) {
    const CampaignAggregate agg =
        aggregate_outcomes(std::vector<DeviceOutcome>{}, AggregateConfig{});
    EXPECT_EQ(agg.population, 0u);
    EXPECT_DOUBLE_EQ(agg.classification.roc_auc, 0.5);
    EXPECT_EQ(agg.lead_time_wide.count, 0u);
    EXPECT_TRUE(std::isfinite(agg.classification.average_precision));
}

/// The campaign rebuilt from its parts, independently of run_campaign's
/// worker loop: the prepare phase's design artifacts, then roll_device
/// (one from-scratch STA per grid year) on every device in index order,
/// then the aggregate fold.
CampaignResult reference_campaign(const Netlist& nl,
                                  const CampaignConfig& config) {
    const DelayAnnotation nominal = DelayAnnotation::nominal(nl);
    const StaResult sta = StaEngine(nl, nominal, config.clock_margin).analyze();
    const MonitorPlacement placement =
        place_monitors(nl, sta, config.monitor_fraction,
                       config.monitor_delay_fractions);
    std::unique_ptr<WearoutModel> wearout;
    RolloutContext ctx;
    ctx.netlist = &nl;
    ctx.placement = &placement;
    ctx.clock_period = sta.clock_period;
    ctx.grid = make_year_grid(config.horizon_years, config.step_years);
    ctx.screen_years = config.screen_years;
    ctx.variation_sigma_log = config.model.variation.sigma_log;
    if (config.wearout.enabled) {
        wearout = std::make_unique<WearoutModel>(nl, nominal, config.wearout);
        ctx.wearout = wearout.get();
    }
    const std::vector<GateId> sites = combinational_sites(nl);
    CampaignResult result;
    result.circuit = nl.name();
    result.num_gates = nl.size();
    result.num_monitors = placement.num_monitors();
    result.clock_period = sta.clock_period;
    for (std::size_t i = 0; i < config.population; ++i) {
        result.outcomes.push_back(roll_device(
            ctx, sample_device(config.model, config.seed,
                               static_cast<std::uint32_t>(i), sites,
                               ctx.clock_period)));
    }
    result.devices_completed = result.outcomes.size();
    result.aggregate = aggregate_outcomes(result.outcomes, config.aggregate);
    return result;
}

/// run_campaign at 3 threads and the compiled width, and serially at
/// width 1, must match the reference outcomes and its deterministic
/// report blocks bit for bit.
void expect_matches_reference(const Netlist& nl, CampaignConfig config,
                              const std::string& label) {
    const CampaignResult want = reference_campaign(nl, config);
    // Not vacuous: some devices fail inside the horizon.
    EXPECT_GT(want.aggregate.failed, 0u) << label;
    const Json jwant = want.to_json(config);
    const std::pair<std::size_t, std::size_t> runs[] = {{3, 0}, {1, 1}};
    for (const auto& [threads, width] : runs) {
        config.num_threads = threads;
        config.batch_width = width;
        const CampaignResult got = run_campaign(nl, config);
        const std::string where = label + " threads " +
                                  std::to_string(threads) + " width " +
                                  std::to_string(width);
        ASSERT_TRUE(got.status.complete()) << where;
        EXPECT_EQ(got.outcomes, want.outcomes) << where;
        const Json jgot = got.to_json(config);
        for (const char* block : {"campaign", "aggregate"}) {
            ASSERT_NE(jgot.find(block), nullptr) << where;
            EXPECT_EQ(jgot.find(block)->dump(2), jwant.find(block)->dump(2))
                << where << " block " << block;
        }
    }
}

TEST(Campaign, MatchesReferenceRollout) {
    // The demo pipeline at the CI determinism configuration.
    CampaignConfig ci;
    ci.population = 1000;
    ci.seed = 7;
    ci.screen_years = 2.0;
    ci.aggregate.early_fail_years = 8.0;
    expect_matches_reference(read_netlist(FASTMON_DEMO_PIPELINE), ci,
                             "demo_pipeline");

    // A generated s9234 at quarter scale, with and without a mission
    // profile; 45 devices leave a ragged final batch.
    const Netlist s9234 =
        generate_circuit(profile_config(find_profile("s9234"), 0.25));
    CampaignConfig small;
    small.population = 45;
    small.seed = 5;
    expect_matches_reference(s9234, small, "s9234");
    small.wearout.enabled = true;
    small.wearout.mission = *find_mission_profile("server_247");
    expect_matches_reference(s9234, small, "s9234 server_247");
}

/// Runs fastmon_campaign on demo_pipeline (16 devices, --quiet) with
/// extra arguments in a private temp directory; the child's output
/// goes to a log the test can read back.
class CampaignCliRun {
public:
    explicit CampaignCliRun(const std::string& tag)
        : dir_(std::filesystem::temp_directory_path() /
               ("fastmon_campaign_cli_" + tag + "_" +
                std::to_string(::getpid()))),
          log_((dir_ / "cli.txt").string()),
          out_((dir_ / "report.json").string()) {
        std::filesystem::create_directories(dir_);
    }
    ~CampaignCliRun() { std::filesystem::remove_all(dir_); }

    /// Exit code of one run (-1 if it could not be spawned).
    int operator()(const std::vector<std::string>& extra) const {
        std::vector<std::string> argv{FASTMON_CAMPAIGN_BIN, "--circuit",
                                      FASTMON_DEMO_PIPELINE, "--population",
                                      "16", "--quiet", "--out", out_};
        argv.insert(argv.end(), extra.begin(), extra.end());
        std::filesystem::remove(log_);  // the child appends to it
        SpawnOptions options;
        options.output_path = log_;
        auto child = Subprocess::spawn(argv, options);
        EXPECT_TRUE(child.has_value());
        return child ? child->exit_code() : -1;
    }
    [[nodiscard]] std::string log_text() const { return read(log_); }
    [[nodiscard]] std::string report_text() const { return read(out_); }

private:
    static std::string read(const std::string& path) {
        std::ifstream in(path);
        return std::string{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    }

    std::filesystem::path dir_;
    std::string log_;
    std::string out_;
};

TEST(CampaignCli, RejectsMalformedBatchWidthAndRemovedFlags) {
    const CampaignCliRun run("width");
    // A sign or a non-number is a usage error, not a silently clamped
    // or "auto" width.
    for (const char* bad : {"-3", "abc", "4x", "+2", ""}) {
        EXPECT_EQ(run({"--batch-width", bad}), 2) << "'" << bad << "'";
        EXPECT_NE(run.log_text().find("--batch-width"), std::string::npos)
            << run.log_text();
    }
    // The retired from-scratch STA mode is an unknown option now.
    EXPECT_EQ(run({"--full-sta"}), 2);
    EXPECT_NE(run.log_text().find("unknown option --full-sta"),
              std::string::npos)
        << run.log_text();
    // Valid widths still run, and the run block records the resolved
    // width (larger values clamp to the compiled one).
    for (const char* width : {"0", "1", "64"}) {
        ASSERT_EQ(run({"--batch-width", width}), 0) << width;
        JsonParseError err;
        const std::optional<Json> report =
            Json::parse(run.report_text(), err);
        ASSERT_TRUE(report.has_value()) << err.message;
        const std::size_t want =
            std::string(width) == "1" ? 1 : kBatchWidth;
        EXPECT_EQ(report->find("run")->find("batch_width")->as_number(),
                  static_cast<double>(want))
            << width;
    }
}

TEST(CampaignCli, RejectsMalformedNumericFlags) {
    const CampaignCliRun run("numeric");
    // Every real-valued flag takes a whole finite token in its range;
    // garbage must not degrade to 0 and run an empty campaign.
    const std::vector<std::pair<const char*, const char*>> bad{
        {"--step", "0"},           {"--step", "abc"},
        {"--step", "-0.25"},       {"--horizon", "-5"},
        {"--horizon", "0"},        {"--horizon", "15y"},
        {"--clock-margin", "abc"}, {"--clock-margin", "0"},
        {"--scale", "0"},          {"--scale", "nan"},
        {"--defect-rate", "1.5"},  {"--defect-rate", "-0.1"},
        {"--variation", "-0.05"},  {"--variation", "inf"},
        {"--screen", "-1"},        {"--screen", ""},
        {"--early-fail", "x3"},    {"--early-fail", " 3"},
        // Integer flags take digits only: no sign, no trailing text.
        {"--threads", "-1"},       {"--threads", "2x"},
        {"--seed", "abc"},         {"--seed", "-7"},
        {"--population", "16x"},   {"--population", "0"},
        {"--checkpoint-every", "-4"}, {"--checkpoint-every", "1.5"},
        {"--activity-patterns", "-1"}, {"--activity-patterns", "8k"},
    };
    for (const auto& [flag, value] : bad) {
        EXPECT_EQ(run({flag, value}), 2) << flag << " '" << value << "'";
        EXPECT_NE(run.log_text().find(std::string("error: ") + flag),
                  std::string::npos)
            << run.log_text();
    }
    // Boundary values inside the ranges still run.
    EXPECT_EQ(run({"--defect-rate", "0", "--variation", "0", "--screen",
                   "0", "--early-fail", "0", "--step", "0.5",
                   "--horizon", "2", "--clock-margin", "1.6"}),
              0)
        << run.log_text();
    EXPECT_EQ(run({"--defect-rate", "1", "--horizon", "1e1"}), 0)
        << run.log_text();
    // 0 keeps its documented meaning: the shared pool, Constant
    // activity.
    EXPECT_EQ(run({"--threads", "0", "--activity-patterns", "0", "--seed",
                   "0", "--checkpoint-every", "0"}),
              0)
        << run.log_text();
}

}  // namespace
}  // namespace fastmon
