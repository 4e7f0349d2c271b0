/**
 * @file
 * Minimal JSON serialisation helpers for the telemetry layer.
 *
 * Only what JSONL trace events need: escaped strings and
 * deterministic number formatting (shortest round-trip via
 * std::to_chars, so the same double always renders as the same
 * bytes — the property the serial==parallel trace-identity test
 * relies on). Non-finite doubles render as null, which keeps every
 * emitted line valid JSON.
 *
 * Every caller appends into a std::string: obs::Event's reused
 * per-depth strings, the analysis verbs' cells and the bench JSON
 * writer.
 */

#ifndef AHQ_OBS_JSON_HH
#define AHQ_OBS_JSON_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace ahq::obs::json
{

/** Append s as a quoted, escaped JSON string. */
inline void
appendString(std::string &out, std::string_view s)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

/** Append a double (shortest round-trip; null when non-finite). */
inline void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** Append an integer. */
inline void
appendNumber(std::string &out, long long v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

} // namespace ahq::obs::json

#endif // AHQ_OBS_JSON_HH
