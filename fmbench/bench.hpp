// Shared pieces of fmbench: the workload interface, the
// outcome of one run, and the benchmark-owned span recorder that the
// traced runs wrap around every stage call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fmbench {

using Clock = std::chrono::steady_clock;

/// Metric name -> value.
using Values = std::map<std::string, double>;

/// Seconds between two steady-clock readings.
double seconds_between(Clock::time_point a, Clock::time_point b);

/// Spans recorded by the benchmark around the library calls of one
/// traced run, kept in memory and written out as a Chrome trace at the
/// end.  Single-threaded: spans open and close on the driving thread.
class SpanLog {
public:
    struct Record {
        std::string name;
        int parent = -1;       ///< index of the enclosing span, -1 = root
        double start_s = 0.0;  ///< since the log was created
        double end_s = 0.0;
        double cpu_s = 0.0;    ///< process CPU spent inside (all threads)
    };

    /// Opens a span on construction and closes it on destruction.
    class Scope {
    public:
        Scope(SpanLog& log, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog* log_;
        int index_;
        double cpu_start_;
    };

    SpanLog();

    /// Summed wall / CPU seconds of every span called `name`.
    [[nodiscard]] double wall(const std::string& name) const;
    [[nodiscard]] double cpu(const std::string& name) const;

    /// Writes the spans as a Chrome trace-event file; false on I/O error.
    bool write_chrome_trace(const std::string& path) const;

private:
    [[nodiscard]] double now_s() const;

    Clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<int> open_;
};

/// What one run of a workload produced.
struct RunOutcome {
    double wall_s = 0.0;               ///< wall time of the timed call(s)
    /// Canonical text of the deterministic program outputs; equal
    /// fingerprints mean equal results.
    std::string fingerprint;
    /// Output checks that failed (empty = the run is correct).
    std::vector<std::string> failures;
    /// Work counters that must repeat exactly from run to run.
    Values exact;
    /// The workload's paper-quality output (the "quality" metric).
    double quality = 0.0;
    /// Per-layer metrics (traced runs only).
    Values layers;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Builds the workload's inputs from its seed (timed as setup_s).
    /// Returns the netlist generation wall time.
    virtual double setup() = 0;

    /// One run through the library's single-call entry point.
    virtual RunOutcome run() = 0;

    /// The same computation, stage by stage through the public stage
    /// functions, each wrapped in a span of `log`.
    virtual RunOutcome run_traced(SpanLog& log) = 0;
};

/// flow_s9234 or detect_s38417.
std::unique_ptr<Workload> make_flow_workload(const std::string& name,
                                             std::uint64_t seed);
/// campaign_s38417.
std::unique_ptr<Workload> make_campaign_workload(std::uint64_t seed);

/// 64-bit FNV-1a of `text`.
std::uint64_t fnv1a(const std::string& text);

}  // namespace fmbench
