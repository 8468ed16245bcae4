// campaign_s38417: a 2000-device population campaign on the full-size
// s38417 profile, run once through run_campaign and once stage by stage
// (STA, monitor placement, sample_device, BatchRollout::roll,
// aggregate_outcomes) on a benchmark-owned pool of the same size.
#include <atomic>
#include <optional>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "monitor/placement.hpp"
#include "netlist/generator.hpp"
#include "timing/sta_engine.hpp"
#include "util/thread_pool.hpp"

namespace fmbench {
namespace {

using namespace fastmon;

constexpr std::size_t kPopulation = 2000;
constexpr std::size_t kThreads = 3;

/// The deterministic "campaign" and "aggregate" report blocks.
std::string fingerprint(const CampaignResult& r, const CampaignConfig& c) {
    const Json j = r.to_json(c);
    return j.find("campaign")->dump() + j.find("aggregate")->dump();
}

class CampaignWorkload final : public Workload {
public:
    explicit CampaignWorkload(std::uint64_t seed) {
        config_.population = kPopulation;
        config_.seed = seed;
        config_.num_threads = kThreads;
        // Pin the batch width so an environment override cannot make the
        // single-call and the stage-by-stage run roll different widths.
        config_.batch_width = BatchRollout::width();
    }

    double setup() override {
        const auto t0 = Clock::now();
        netlist_.emplace(
            generate_circuit(profile_config(find_profile("s38417"))));
        return seconds_between(t0, Clock::now());
    }

    RunOutcome run() override {
        RunOutcome out;
        const auto t0 = Clock::now();
        const CampaignResult r = run_campaign(*netlist_, config_);
        out.wall_s = seconds_between(t0, Clock::now());
        if (!r.status.complete()) {
            out.failures.push_back("campaign status is " +
                                   r.status.to_json().dump());
        }
        finish(out, r);
        return out;
    }

    RunOutcome run_traced(SpanLog& log) override;

private:
    void finish(RunOutcome& out, const CampaignResult& r) const {
        if (r.devices_completed != config_.population) {
            out.failures.push_back(
                std::to_string(r.devices_completed) + " of " +
                std::to_string(config_.population) + " devices completed");
        }
        out.fingerprint = fingerprint(r, config_);
        out.quality = r.aggregate.classification.roc_auc;
    }

    CampaignConfig config_;
    std::optional<Netlist> netlist_;
};

/// Work totals of the rollout, summed over worker chunks.
struct RolloutTotals {
    std::atomic<std::uint64_t> sample_ns{0};
    std::atomic<std::uint64_t> roll_ns{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> devices{0};
    std::atomic<std::uint64_t> lane_years{0};
    std::atomic<std::uint64_t> settled_early{0};
    std::atomic<std::uint64_t> sta_passes{0};
    std::atomic<std::uint64_t> lane_loads{0};
};

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

RunOutcome CampaignWorkload::run_traced(SpanLog& log) {
    const Netlist& nl = *netlist_;
    const CampaignConfig& cfg = config_;
    RunOutcome out;
    CampaignResult res;
    res.circuit = nl.name();
    res.num_gates = nl.size();
    const auto t_start = Clock::now();
    std::optional<SpanLog::Scope> campaign_span(std::in_place, log,
                                                "campaign");

    const DelayAnnotation nominal = DelayAnnotation::nominal(nl);
    StaResult sta;
    {
        const SpanLog::Scope span(log, "timing.sta");
        StaEngine engine(nl, nominal, cfg.clock_margin);
        sta = engine.analyze();
    }
    MonitorPlacement placement;
    {
        const SpanLog::Scope span(log, "monitor.place");
        placement = place_monitors(nl, sta, cfg.monitor_fraction,
                                   cfg.monitor_delay_fractions);
    }
    res.clock_period = sta.clock_period;
    res.num_monitors = placement.num_monitors();
    RolloutContext ctx;
    ctx.netlist = &nl;
    ctx.placement = &placement;
    ctx.clock_period = sta.clock_period;
    ctx.grid = make_year_grid(cfg.horizon_years, cfg.step_years);
    ctx.screen_years = cfg.screen_years;
    ctx.variation_sigma_log = cfg.model.variation.sigma_log;
    const std::vector<GateId> sites = combinational_sites(nl);

    // Rollout: each pool chunk owns one BatchRollout and fills its
    // devices' slots, width() samples per batch, as run_campaign does.
    std::vector<DeviceOutcome> outcomes(cfg.population);
    RolloutTotals totals;
    ThreadPool pool(cfg.num_threads);
    double rollout_wall = 0.0;
    {
        const SpanLog::Scope span(log, "campaign.rollout");
        const auto t0 = Clock::now();
        pool.parallel_chunks(
            cfg.population, 0, [&](std::size_t begin, std::size_t end) {
                BatchRollout rollout(ctx);
                std::vector<DeviceSample> samples;
                samples.reserve(BatchRollout::width());
                for (std::size_t i = begin; i < end;) {
                    const std::size_t first = i;
                    const auto ts = Clock::now();
                    samples.clear();
                    for (; i < end && samples.size() < BatchRollout::width();
                         ++i) {
                        samples.push_back(sample_device(
                            cfg.model, cfg.seed, static_cast<std::uint32_t>(i),
                            sites, ctx.clock_period));
                    }
                    const auto tr = Clock::now();
                    rollout.roll(samples,
                                 std::span(outcomes).subspan(first,
                                                             samples.size()));
                    totals.sample_ns += ns_between(ts, tr);
                    totals.roll_ns += ns_between(tr, Clock::now());
                }
                const BatchRollout::Stats& bs = rollout.stats();
                totals.batches += bs.batches;
                totals.devices += bs.devices;
                totals.lane_years += bs.lane_years;
                totals.settled_early += bs.lanes_settled_early;
                totals.sta_passes += rollout.engine_stats().batch_passes;
                totals.lane_loads += rollout.engine_stats().lane_loads;
            });
        rollout_wall = seconds_between(t0, Clock::now());
    }
    res.devices_completed = totals.devices;
    {
        const SpanLog::Scope span(log, "campaign.aggregate");
        res.aggregate = aggregate_outcomes(outcomes, cfg.aggregate);
    }
    campaign_span.reset();
    out.wall_s = seconds_between(t_start, Clock::now());
    finish(out, res);

    const ThreadPool::Stats ps = pool.stats();
    const double busy = ps.total_busy_seconds();
    Values& m = out.layers;
    m["timing.sta_s"] = log.wall("timing.sta");
    m["monitor.place_s"] = log.wall("monitor.place");
    m["campaign.sample_s"] = static_cast<double>(totals.sample_ns) * 1e-9;
    m["campaign.roll_s"] = static_cast<double>(totals.roll_ns) * 1e-9;
    m["campaign.aggregate_s"] = log.wall("campaign.aggregate");
    m["campaign.batches"] = static_cast<double>(totals.batches);
    m["campaign.lane_years"] = static_cast<double>(totals.lane_years);
    m["campaign.settle_ratio"] =
        totals.devices == 0 ? 0.0
                            : static_cast<double>(totals.settled_early) /
                                  static_cast<double>(totals.devices);
    m["timing.batch_sta_passes"] = static_cast<double>(totals.sta_passes);
    m["timing.batch_sta_lane_loads"] = static_cast<double>(totals.lane_loads);
    // Workers plus the calling thread, which helps while it waits.
    const double lanes = static_cast<double>(pool.size() + 1);
    m["util.pool.busy_s"] = busy;
    m["util.pool.utilization"] = busy / (lanes * rollout_wall);
    m["util.pool.tasks_executed"] = static_cast<double>(ps.tasks_executed);
    m["util.pool.tasks_stolen"] = static_cast<double>(ps.tasks_stolen);
    m["out.roc_auc"] = res.aggregate.classification.roc_auc;
    return out;
}

}  // namespace

std::unique_ptr<Workload> make_campaign_workload(std::uint64_t seed) {
    return std::make_unique<CampaignWorkload>(seed);
}

}  // namespace fmbench
