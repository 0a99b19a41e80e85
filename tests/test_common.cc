/** @file Unit tests for logging, RNG, statistics and table output. */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"

namespace pfits
{
namespace
{

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad user input %d", 42), FatalError);
    try {
        fatal("value=%d", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7");
    }
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant"), PanicError);
}

TEST(Logging, WarnOnceEmitsExactlyOnce)
{
    setQuiet(false);
    uint64_t before = warnCount();
    for (int i = 0; i < 100; ++i)
        warn_once("only once please (%d)", i);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(Logging, WarnEveryNRateLimits)
{
    setQuiet(false);
    uint64_t before = warnCount();
    for (int i = 0; i < 100; ++i)
        warn_every_n(10, "every tenth (%d)", i);
    // Fires on iterations 0, 10, 20, ... 90.
    EXPECT_EQ(warnCount(), before + 10);

    // A different call site keeps its own counter.
    before = warnCount();
    for (int i = 0; i < 5; ++i)
        warn_every_n(10, "first of five");
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    std::set<uint32_t> seen;
    for (int i = 0; i < 10000; ++i) {
        uint32_t v = rng.below(17);
        ASSERT_LT(v, 17u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 17u); // every bucket hit
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 20000; ++i) {
        int32_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        hit_lo = hit_lo || v == -3;
        hit_hi = hit_hi || v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Table, PrintAlignsAndCsvEscapes)
{
    Table table("demo");
    table.setHeader({"name", "v"});
    table.addRow({"a,b", "1"});
    table.addRow("plain", {2.5}, 1);

    std::ostringstream text;
    table.print(text);
    EXPECT_NE(text.str().find("demo"), std::string::npos);
    EXPECT_NE(text.str().find("2.5"), std::string::npos);

    std::ostringstream csv;
    table.printCsv(csv);
    EXPECT_NE(csv.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, CsvEscapesQuotesAndNewlines)
{
    Table table("rfc4180");
    table.setHeader({"name", "v"});
    table.addRow({"say \"hi\"", "1"});
    table.addRow({"two\nlines", "2"});
    table.addRow({"cr\rhere", "3"});
    table.addRow({"comma,and\"quote", "4"});
    table.addRow({"plain", "5"});

    std::ostringstream csv;
    table.printCsv(csv);
    const std::string out = csv.str();
    // Embedded quotes are doubled and the cell is quoted.
    EXPECT_NE(out.find("\"say \"\"hi\"\"\",1"), std::string::npos);
    // Line breaks force quoting (without doubling anything).
    EXPECT_NE(out.find("\"two\nlines\",2"), std::string::npos);
    EXPECT_NE(out.find("\"cr\rhere\",3"), std::string::npos);
    // Both triggers at once: quoted, with the quote doubled.
    EXPECT_NE(out.find("\"comma,and\"\"quote\",4"), std::string::npos);
    // Unremarkable cells stay unquoted.
    EXPECT_NE(out.find("plain,5"), std::string::npos);
    EXPECT_EQ(out.find("\"plain\""), std::string::npos);
}

TEST(Table, RowWidthChecked)
{
    Table table("demo");
    table.setHeader({"a", "b"});
    EXPECT_THROW(table.addRow({"only one"}), FatalError);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatPercent(0.4713, 1), "47.1%");
}

} // namespace
} // namespace pfits
