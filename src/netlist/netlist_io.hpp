// Unified netlist reading front end.
//
// read_netlist(path) dispatches on the file extension:
//   .bench          → ISCAS'89 bench reader      (bench_io.hpp)
//   .v              → structural Verilog reader  (verilog_io.hpp)
//   .aag / .aig     → AIGER reader, ASCII/binary (aiger_io.hpp)
//
// Tools and flows should use this instead of the per-format
// read_*_file entry points, which remain as thin delegates for
// existing callers.  Errors surface as Diagnostic (unknown extension,
// unreadable file) or as the underlying parser's error type.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace fastmon {

enum class NetlistFormat : std::uint8_t {
    Bench,    ///< ISCAS'89 .bench
    Verilog,  ///< structural Verilog subset (.v)
    Aiger,    ///< AIGER .aag/.aig (ASCII vs binary detected from header)
};

/// Format implied by a path's extension, or nullopt if unrecognized.
std::optional<NetlistFormat> netlist_format_from_path(std::string_view path);

/// Reads a netlist file, dispatching on the extension.  Throws
/// Diagnostic for unknown extensions or unopenable files.
Netlist read_netlist(const std::string& path);

/// Reads a netlist file in an explicitly chosen format, ignoring the
/// extension.
Netlist read_netlist(const std::string& path, NetlistFormat format);

}  // namespace fastmon
