#include "netlist/netlist_io.hpp"

#include "netlist/aiger_io.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/verilog_io.hpp"
#include "util/diagnostic.hpp"

namespace fastmon {

std::optional<NetlistFormat> netlist_format_from_path(std::string_view path) {
    const auto dot = path.find_last_of('.');
    if (dot == std::string_view::npos) return std::nullopt;
    const std::string_view ext = path.substr(dot + 1);
    if (ext == "bench") return NetlistFormat::Bench;
    if (ext == "v") return NetlistFormat::Verilog;
    if (ext == "aag" || ext == "aig") return NetlistFormat::Aiger;
    return std::nullopt;
}

Netlist read_netlist(const std::string& path, NetlistFormat format) {
    switch (format) {
        case NetlistFormat::Bench: return read_bench_file(path);
        case NetlistFormat::Verilog: return read_verilog_file(path);
        case NetlistFormat::Aiger: return read_aiger_file(path);
    }
    throw Diagnostic("netlist", path, 0, 0, "invalid netlist format", "");
}

Netlist read_netlist(const std::string& path) {
    const auto format = netlist_format_from_path(path);
    if (!format) {
        throw Diagnostic(
            "netlist", path, 0, 0,
            "unrecognized netlist extension (expected .bench, .v, .aag or .aig)",
            "");
    }
    return read_netlist(path, *format);
}

}  // namespace fastmon
