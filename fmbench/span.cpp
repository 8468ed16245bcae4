#include <fstream>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/manifest.hpp"

namespace fmbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

double SpanLog::now_s() const { return seconds_between(origin_, Clock::now()); }

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(&log),
      index_(static_cast<int>(log.records_.size())),
      cpu_start_(fastmon::PhaseStopwatch::process_cpu_seconds()) {
    Record r;
    r.name = std::move(name);
    r.parent = log.open_.empty() ? -1 : log.open_.back();
    r.start_s = log.now_s();
    log.records_.push_back(std::move(r));
    log.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
    Record& r = log_->records_[static_cast<std::size_t>(index_)];
    r.end_s = log_->now_s();
    r.cpu_s = fastmon::PhaseStopwatch::process_cpu_seconds() - cpu_start_;
    log_->open_.pop_back();
}

double SpanLog::wall(const std::string& name) const {
    double total = 0.0;
    for (const Record& r : records_) {
        if (r.name == name) total += r.end_s - r.start_s;
    }
    return total;
}

double SpanLog::cpu(const std::string& name) const {
    double total = 0.0;
    for (const Record& r : records_) {
        if (r.name == name) total += r.cpu_s;
    }
    return total;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
    fastmon::Json events = fastmon::Json::array();
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        fastmon::Json e = fastmon::Json::object();
        e.set("name", r.name);
        e.set("ph", "X");
        e.set("pid", 1);
        e.set("tid", 1);
        e.set("ts", r.start_s * 1e6);
        e.set("dur", (r.end_s - r.start_s) * 1e6);
        fastmon::Json args = fastmon::Json::object();
        args.set("id", static_cast<std::uint64_t>(i));
        args.set("parent", r.parent);
        args.set("cpu_s", r.cpu_s);
        e.set("args", std::move(args));
        events.push_back(std::move(e));
    }
    fastmon::Json doc = fastmon::Json::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream os(path);
    os << doc.dump() << '\n';
    return static_cast<bool>(os);
}

}  // namespace fmbench
