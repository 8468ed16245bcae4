// Strict numeric flag parsing shared by the command-line tools.
//
// A flag value must be one whole token that names a number in the
// flag's range; anything else ("abc", "3x", "", " 3", "nan", "-1" for
// a count) is a usage error reported on stderr, never a silent 0 or a
// wrapped-around unsigned value.  Each tool maps `false` to its own
// documented usage-error exit code.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

namespace fastmon::cli {

/// Accepted range of a real-valued flag.
enum class Range { Positive, NonNegative, Fraction, AtLeastOne };

/// Parses a real-valued flag: the whole token must be a finite number
/// within `range` (> 0, >= 0, [0, 1], or >= 1).
inline bool parse_real(const char* flag, const char* text, Range range,
                       double& out) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    const bool number = *text != '\0' &&
                        !std::isspace(static_cast<unsigned char>(*text)) &&
                        *end == '\0' && std::isfinite(v);
    bool in_range = false;
    const char* want = "";
    switch (range) {
        case Range::Positive:
            in_range = v > 0.0;
            want = "a number > 0";
            break;
        case Range::NonNegative:
            in_range = v >= 0.0;
            want = "a number >= 0";
            break;
        case Range::Fraction:
            in_range = v >= 0.0 && v <= 1.0;
            want = "a number in [0, 1]";
            break;
        case Range::AtLeastOne:
            in_range = v >= 1.0;
            want = "a number >= 1";
            break;
    }
    if (!number || !in_range) {
        std::cerr << "error: " << flag << " expects " << want << " (got '"
                  << text << "')\n";
        return false;
    }
    out = v;
    return true;
}

/// Parses an unsigned integer flag: decimal digits only (no sign, no
/// fraction, no trailing text), at least `min` and representable in
/// `UInt`.
template <typename UInt>
bool parse_uint(const char* flag, const char* text, UInt min, UInt& out) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    const bool number = std::isdigit(static_cast<unsigned char>(*text)) &&
                        *end == '\0' && errno != ERANGE &&
                        v <= std::numeric_limits<UInt>::max();
    if (!number || v < min) {
        std::cerr << "error: " << flag << " expects ";
        if (min == 0) {
            std::cerr << "a non-negative integer";
        } else {
            std::cerr << "an integer >= " << min;
        }
        std::cerr << " (got '" << text << "')\n";
        return false;
    }
    out = static_cast<UInt>(v);
    return true;
}

}  // namespace fastmon::cli
