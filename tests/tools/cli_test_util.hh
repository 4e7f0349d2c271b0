/**
 * @file
 * Helpers the CLI test files share: reading back a file a verb
 * wrote, and the part of a verb's stdout that is the same on every
 * run.
 */

#ifndef AHQ_TESTS_TOOLS_CLI_TEST_UTIL_HH
#define AHQ_TESTS_TOOLS_CLI_TEST_UTIL_HH

#include <fstream>
#include <sstream>
#include <string>

namespace ahq::cli::test_util
{

/** A file's bytes; empty when it does not exist. */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Stdout with the lines that differ run to run removed: the fleet
 * "wall ... nodes/s" line, the console span tree (its columns are
 * wall times), the wall-time and prof.* histograms, and the sum of
 * every other histogram (a float total whose summation order
 * follows the worker interleaving).
 */
inline std::string
stableStdout(const std::string &text)
{
    const auto startsWith = [](const std::string &s, const char *p) {
        return s.rfind(p, 0) == 0;
    };
    std::istringstream in(text);
    std::string out;
    bool in_tree = false;
    bool in_wall_hist = false;
    for (std::string line; std::getline(in, line);) {
        if (startsWith(line, "profile (span tree")) {
            in_tree = true;
            continue;
        }
        if (in_tree) {
            // The tree runs until the finish sequence moves on.
            if (!startsWith(line, "trace written to ") &&
                !startsWith(line, "counter "))
                continue;
            in_tree = false;
        }
        if (startsWith(line, "wall ") &&
            line.find(" nodes/s") != std::string::npos)
            continue;
        if (startsWith(line, "histogram ")) {
            const std::string name =
                line.substr(10, line.find(' ', 10) - 10);
            in_wall_hist = startsWith(name, "prof.") ||
                name.find("wall") != std::string::npos;
            if (in_wall_hist)
                continue;
            line = line.substr(0, line.find(" sum = "));
        } else if (startsWith(line, "  ")) {
            if (in_wall_hist)
                continue;
        } else {
            in_wall_hist = false;
        }
        out += line;
        out += '\n';
    }
    return out;
}

} // namespace ahq::cli::test_util

#endif // AHQ_TESTS_TOOLS_CLI_TEST_UTIL_HH
