/**
 * @file
 * Tests for the CSV writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "report/csv.hh"

namespace
{

using ahq::report::CsvWriter;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Csv, WritesHeaderAndRows)
{
    const std::string path = "/tmp/ahq_csv_test1.csv";
    {
        CsvWriter w(path, {"x", "y"});
        w.addRow({"1", "2"});
        w.addRow({"3", "4"});
    }
    EXPECT_EQ(slurp(path), "x,y\n1,2\n3,4\n");
    std::remove(path.c_str());
}

TEST(Csv, EscapesSpecialCharacters)
{
    const std::string path = "/tmp/ahq_csv_test2.csv";
    {
        CsvWriter w(path, {"plain"});
        w.addRow({"a,b", "say \"hi\"", "line\nbreak"});
    }
    EXPECT_EQ(slurp(path), "plain\n\"a,b\",\"say \"\"hi\"\"\","
                           "\"line\nbreak\"\n");
    std::remove(path.c_str());
}

TEST(Csv, UnwritablePathIsNonFatal)
{
    CsvWriter w("/nonexistent-dir/foo.csv", {"a"});
    w.addRow({"1"}); // must not crash or throw
}

} // namespace
