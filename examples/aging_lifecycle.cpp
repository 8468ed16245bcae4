// Wear-out and early-life failure prediction over device lifetimes —
// the monitoring story of Fig. 2, driven through the campaign engine.
//
// A small population (N = 8) of virtual devices is sampled with the
// campaign API: every device gets its own process-variation annotation
// and wear-out rate, and about half additionally carry an early-life
// defect (a hidden delay fault that magnifies after deployment).
// Programmable monitors watch the long path ends.  The deployed clock
// runs at 1.6 x the critical path, so the guard-band ladder unfolds
// over the lifetime: the wide window (1/3 clk) alerts first — the
// early-warning configuration of Fig. 2 (b) — and the narrow windows
// track the shrinking margin until imminent failure (Fig. 2 (c)).
//
// Because a device is a pure function of (campaign seed, index), the
// example then re-derives one marginal device from its index alone and
// replays its alert ladder in detail — the same determinism contract
// that makes fleet-scale campaigns resumable and thread-count
// independent (see DESIGN.md, "Campaign engine").
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "campaign/campaign.hpp"
#include "monitor/aging.hpp"
#include "netlist/iscas_data.hpp"
#include "timing/delay_model.hpp"
#include "timing/sta_engine.hpp"

int main() {
    using namespace fastmon;

    const Netlist netlist = make_mini_alu();

    // --- an N=8 campaign: population sampling + rollout + aggregate --
    CampaignConfig config;
    config.population = 8;
    config.seed = 3;
    config.num_threads = 1;  // tiny population; keep the run serial
    // A heavily stressed automotive corner (+55 % delay over the
    // 10-year reference) and every second device marginal, so the
    // small population shows both lifecycle stories.
    config.model.aging.nominal = AgingModel{0.55, 1.0, 10.0};
    config.model.defect.incidence = 0.5;
    config.horizon_years = 12.0;
    // Under this aggressive wear-out everyone alerts within two years
    // and fails within the horizon; widen the burn-in screen and the
    // "early" cutoff accordingly so the classification story shows.
    config.screen_years = 2.0;
    config.aggregate.early_fail_years = 8.0;

    const CampaignResult result = run_campaign(netlist, config);
    std::cout << "circuit " << result.circuit << ", operating clk = "
              << result.clock_period << " ps (1.6 x cpl), "
              << result.num_monitors << " monitor(s), population "
              << result.outcomes.size() << "\n\n";

    std::cout << "device  marginal  screen  wide alert  failure  lead\n";
    for (const DeviceOutcome& out : result.outcomes) {
        auto years = [](double y) {
            char buf[16];
            if (y < 0.0) {
                std::snprintf(buf, sizeof buf, "%8s", "never");
            } else {
                std::snprintf(buf, sizeof buf, "%6.2f y", y);
            }
            return std::string(buf);
        };
        std::printf("  #%u      %s     %5.2f  %s  %s  %s\n", out.index,
                    out.marginal ? "yes" : " no", out.screen_score,
                    years(out.first_alert_years.back()).c_str(),
                    years(out.failure_years).c_str(),
                    years(out.lead_time_years()).c_str());
    }
    const CampaignAggregate& agg = result.aggregate;
    std::printf(
        "\n%zu of %zu marginal; %zu failed within %.0f y (%zu early); "
        "burn-in screen ROC AUC %.2f\n\n",
        agg.marginal, agg.population, agg.failed, config.horizon_years,
        agg.early_failures, agg.classification.roc_auc);

    // --- replay one device in detail, re-derived from its index ------
    // The campaign never stored this device: (seed, index) is enough to
    // rebuild its silicon, wear-out rate, and defects bit-identically.
    std::uint32_t marginal_index = 0;
    std::uint32_t healthy_index = 0;
    for (const DeviceOutcome& out : result.outcomes) {
        if (out.marginal) {
            marginal_index = out.index;
        } else {
            healthy_index = out.index;
        }
    }

    const DelayAnnotation nominal = DelayAnnotation::nominal(netlist);
    const StaResult sta = StaEngine(netlist, nominal, config.clock_margin).analyze();
    const MonitorPlacement placement =
        place_monitors(netlist, sta, config.monitor_fraction,
                       config.monitor_delay_fractions);
    const std::vector<GateId> sites = combinational_sites(netlist);
    const std::vector<double> grid =
        make_year_grid(config.horizon_years, config.step_years);

    auto replay = [&](const char* label, std::uint32_t index) {
        const DeviceSample sample =
            sample_device(config.model, config.seed, index, sites,
                          sta.clock_period);
        const DelayAnnotation silicon =
            DelayAnnotation::with_lognormal_variation(
                netlist, config.model.variation.sigma_log, sample.seed);
        LifetimeSimulator sim(netlist, silicon, sta.clock_period,
                              sample.aging, sample.seed);
        for (const MarginalDefect& defect : sample.defects) {
            sim.add_defect(defect);
        }
        std::cout << "--- device #" << index << ": " << label << " ---\n";
        std::cout << "year   arrival/clk   guard-band alerts (wide..narrow)\n";
        std::vector<bool> prev_alerts(placement.config_delays.size(), false);
        double failure_year = -1.0;
        for (const LifetimePoint& p : sim.sweep(grid, placement)) {
            const bool alerts_changed = p.alerts != prev_alerts;
            const bool yearly = std::fmod(p.years + 1e-9, 2.0) < 0.02;
            if (p.timing_failure && failure_year < 0.0) failure_year = p.years;
            if (!alerts_changed && !yearly &&
                !(p.timing_failure && failure_year == p.years)) {
                continue;
            }
            prev_alerts = p.alerts;
            std::printf("%5.2f   %6.1f%%       ", p.years,
                        100.0 * p.worst_arrival / sta.clock_period);
            for (std::size_t c = p.alerts.size(); c-- > 1;) {
                std::printf("%s", p.alerts[c] ? "A" : ".");
            }
            if (p.timing_failure) std::printf("   << TIMING FAILURE");
            std::printf("\n");
        }
        const std::vector<double> first =
            sim.first_alert_years(grid, placement);
        if (failure_year >= 0.0 && first.back() >= 0.0) {
            std::printf(
                "failure at %.2f y; the wide guard band alerted %.2f y "
                "earlier\n",
                failure_year, failure_year - first.back());
        }
        std::cout << "\n";
    };

    replay("wear-out only", healthy_index);
    replay("early-life defect", marginal_index);

    std::cout << "The marginal device walks the same alert ladder years\n"
                 "earlier — the early-life signature the paper's FAST reuse\n"
                 "of these monitors exposes already at manufacturing test,\n"
                 "and that the campaign aggregate quantifies fleet-wide.\n";

    return 0;
}
