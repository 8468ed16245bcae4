// Process-wide registry of named counters, gauges, and histograms.
//
// Absorbs the role the engine-local DetectionCounters played in PR 1
// and extends it to every phase of the flow: STA, ATPG (backtracks,
// aborts), monitor shifting, discretization, both ILP set-cover steps
// (elements/columns, branch-and-bound nodes, budget exhaustion), and the
// thread pool (per-worker busy time, queue depth, steals).  Metric
// handles are stable references — look them up once, then update
// lock-free (counters/gauges are atomics; histograms take a short
// lock per sample).
//
// Snapshots serialize to JSON (name-sorted, deterministic) for the
// RunManifest; FASTMON_METRICS=<path> dumps the global registry at
// process exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/sketch.hpp"

namespace fastmon {

/// Monotone event count.
class Counter {
public:
    void add(std::uint64_t delta = 1) {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written scalar (e.g. queue depth, optimality gap).
class Gauge {
public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    void max(double v) {
        double cur = value_.load(std::memory_order_relaxed);
        while (v > cur && !value_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] double value() const {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Sample distribution with exact count/sum/min/max and percentile
/// queries, backed by a mergeable QuantileSketch.  The earlier
/// decimating reservoir dropped tail samples once the cap was hit, so
/// p99-style summaries silently degraded on long streams; the
/// log-bucketed sketch bounds memory while keeping every quantile
/// within a fixed relative error — and lets worker-local sketches fold
/// straight into a registry histogram via merge().
class Histogram {
public:
    void record(double x);

    /// Folds a worker-local sketch into this histogram (same relative
    /// accuracy required; campaign telemetry uses the shared default).
    void merge(const QuantileSketch& sketch);

    [[nodiscard]] std::uint64_t count() const;
    [[nodiscard]] double sum() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    [[nodiscard]] double mean() const;
    /// p in [0, 100]; relative error bounded by the sketch alpha.
    [[nodiscard]] double percentile(double p) const;
    void reset();

    /// Copy of the backing sketch (tests, exports).
    [[nodiscard]] QuantileSketch snapshot() const;

    /// Same keys as the pre-sketch backend: {count, sum, min, max,
    /// mean, p50, p90, p99}.
    [[nodiscard]] Json to_json() const;

private:
    mutable std::mutex mutex_;
    QuantileSketch sketch_;
};

class MetricsRegistry {
public:
    MetricsRegistry() = default;

    /// Process-wide registry; reads $FASTMON_METRICS on first access
    /// and dumps to that path at exit when set.
    static MetricsRegistry& global();

    /// Finds or creates; returned references stay valid for the
    /// registry's lifetime.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /// Name-sorted snapshot: counters/gauges as numbers, histograms as
    /// {count, sum, min, max, mean, p50, p90, p99}.
    [[nodiscard]] Json to_json() const;

    /// Zeroes every metric (handles stay valid).  Tests only.
    void reset();

    [[nodiscard]] std::size_t size() const;

private:
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fastmon
