#include <gtest/gtest.h>

#include <clocale>
#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace vu = volsched::util;

TEST(Csv, HeaderAndRows) {
    std::ostringstream os;
    vu::CsvWriter csv(os, {"a", "b"});
    csv.row({"1", "2"});
    csv.row({"x", "y"});
    EXPECT_EQ(os.str(), "a,b\n1,2\nx,y\n");
    EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, QuotesSpecialCharacters) {
    std::ostringstream os;
    vu::CsvWriter csv(os, {"v"});
    csv.row({"has,comma"});
    csv.row({"has\"quote"});
    csv.row({"has\nnewline"});
    EXPECT_EQ(os.str(),
              "v\n\"has,comma\"\n\"has\"\"quote\"\n\"has\nnewline\"\n");
}

TEST(Csv, RejectsArityMismatch) {
    std::ostringstream os;
    vu::CsvWriter csv(os, {"a", "b"});
    EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
}

TEST(Csv, RejectsEmptyHeader) {
    std::ostringstream os;
    EXPECT_THROW(vu::CsvWriter(os, {}), std::invalid_argument);
}

TEST(Csv, NumericCells) {
    EXPECT_EQ(vu::CsvWriter::cell(static_cast<std::size_t>(42)), "42");
    EXPECT_EQ(vu::CsvWriter::cell(static_cast<long long>(-7)), "-7");
    EXPECT_EQ(vu::CsvWriter::cell(1.5), "1.5");
}

TEST(Table, RendersAlignedColumns) {
    vu::TextTable t({"name", "value"});
    t.align_right(1);
    t.add_row({"alpha", "1.00"});
    t.add_row({"b", "10.50"});
    const std::string out = t.render("title");
    EXPECT_NE(out.find("title\n"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    // Right-aligned: "1.00" must be padded to the width of "10.50".
    EXPECT_NE(out.find(" 1.00"), std::string::npos);
}

TEST(Table, RejectsBadArityAndColumn) {
    vu::TextTable t({"a"});
    EXPECT_THROW(t.add_row({"x", "y"}), std::invalid_argument);
    EXPECT_THROW(t.align_right(3), std::out_of_range);
}

TEST(Table, NumFormatsDecimals) {
    EXPECT_EQ(vu::TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(vu::TextTable::num(2.0, 0), "2");
}

TEST(Cli, ParsesAllForms) {
    vu::Cli cli("prog", "test");
    cli.add_int("count", 5, "a count");
    cli.add_double("ratio", 0.5, "a ratio");
    cli.add_string("mode", "fast", "a mode");
    cli.add_flag("verbose", "chatty");
    const char* argv[] = {"prog",    "--count", "7",         "--ratio=0.25",
                          "--mode",  "slow",    "--verbose"};
    ASSERT_TRUE(cli.parse(7, argv));
    EXPECT_EQ(cli.get_int("count"), 7);
    EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.25);
    EXPECT_EQ(cli.get_string("mode"), "slow");
    EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, DefaultsSurviveWhenUnset) {
    vu::Cli cli("prog", "test");
    cli.add_int("count", 5, "a count");
    cli.add_flag("verbose", "chatty");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    EXPECT_EQ(cli.get_int("count"), 5);
    EXPECT_FALSE(cli.get_flag("verbose"));
}

// A flag's value must be one get_flag reads: "--timeline=on" used to be
// stored and then read as unset, so the run silently ignored it.
TEST(Cli, FlagValuesMustBeBoolean) {
    for (const char* on : {"1", "true", "yes"}) {
        vu::Cli cli("prog", "test");
        cli.add_flag("verbose", "chatty");
        const std::string arg = std::string("--verbose=") + on;
        const char* argv[] = {"prog", arg.c_str()};
        ASSERT_TRUE(cli.parse(2, argv)) << arg;
        EXPECT_TRUE(cli.get_flag("verbose")) << arg;
    }
    for (const char* off : {"0", "false", "no"}) {
        vu::Cli cli("prog", "test");
        cli.add_flag("verbose", "chatty");
        const std::string arg = std::string("--verbose=") + off;
        const char* argv[] = {"prog", arg.c_str()};
        ASSERT_TRUE(cli.parse(2, argv)) << arg;
        EXPECT_FALSE(cli.get_flag("verbose")) << arg;
    }
    for (const char* bad : {"on", "off", "", "2", "TRUE"}) {
        vu::Cli cli("prog", "test");
        cli.add_flag("verbose", "chatty");
        const std::string arg = std::string("--verbose=") + bad;
        const char* argv[] = {"prog", arg.c_str()};
        EXPECT_FALSE(cli.parse(2, argv)) << arg;
        EXPECT_EQ(cli.exit_code(), 2) << arg;
    }
}

TEST(Cli, UnknownOptionFails) {
    vu::Cli cli("prog", "test");
    const char* argv[] = {"prog", "--nope"};
    EXPECT_FALSE(cli.parse(2, argv));
    EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, MissingValueFails) {
    vu::Cli cli("prog", "test");
    cli.add_int("count", 5, "a count");
    const char* argv[] = {"prog", "--count"};
    EXPECT_FALSE(cli.parse(2, argv));
    EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, HelpStopsExecutionWithZero) {
    vu::Cli cli("prog", "test");
    const char* argv[] = {"prog", "--help"};
    EXPECT_FALSE(cli.parse(2, argv));
    EXPECT_EQ(cli.exit_code(), 0);
}

// Regression for the R3/wall-clock lint finding: Cli used strtod/strtoll,
// whose decimal point follows LC_NUMERIC — under a comma-decimal locale
// "--ratio 1.5" would stop parsing at the '.' and be rejected as a
// malformed token.  std::from_chars never consults the locale.
TEST(Cli, NumericParsingIsLocaleIndependent) {
    const char* saved = std::setlocale(LC_NUMERIC, nullptr);
    const std::string saved_name = saved ? saved : "C";
    const bool have_comma_locale =
        std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
        std::setlocale(LC_NUMERIC, "de_DE.utf8") != nullptr ||
        std::setlocale(LC_NUMERIC, "fr_FR.UTF-8") != nullptr;

    vu::Cli cli("prog", "test");
    cli.add_double("ratio", 0.5, "a ratio");
    const char* argv[] = {"prog", "--ratio", "1.5"};
    const bool ok = cli.parse(3, argv);
    const double parsed = ok ? cli.get_double("ratio") : 0.0;
    std::setlocale(LC_NUMERIC, saved_name.c_str());

    ASSERT_TRUE(ok);
    EXPECT_EQ(parsed, 1.5);
    if (!have_comma_locale)
        GTEST_SKIP() << "no comma-decimal locale installed; exercised the "
                        "default locale only";
}

// from_chars is also stricter than strtod: whole tokens only, no leading
// whitespace or '+', and never a locale-dependent comma.
TEST(Cli, RejectsNonCanonicalNumericTokens) {
    for (const char* bad : {"1,5", " 5", "5 ", "+5", "", "1.5.0"}) {
        vu::Cli cli("prog", "test");
        cli.add_double("ratio", 0.5, "a ratio");
        const char* argv[] = {"prog", "--ratio", bad};
        EXPECT_FALSE(cli.parse(3, argv)) << "token '" << bad << "'";
        EXPECT_EQ(cli.exit_code(), 2) << "token '" << bad << "'";
    }
    for (const char* good : {"-3", "2.5e-1", ".5"}) {
        vu::Cli cli("prog", "test");
        cli.add_double("ratio", 0.5, "a ratio");
        const char* argv[] = {"prog", "--ratio", good};
        EXPECT_TRUE(cli.parse(3, argv)) << "token '" << good << "'";
    }
}

// Default values render via to_chars (shortest round-trip, '.'-decimal),
// so help text is byte-stable across locales and platforms.
TEST(Cli, DoubleDefaultRendersShortestRoundTrip) {
    vu::Cli cli("prog", "test");
    cli.add_double("ratio", 0.1, "a ratio");
    cli.add_double("scale", 5.0, "a scale");
    const std::string h = cli.help();
    EXPECT_NE(h.find("default: 0.1"), std::string::npos) << h;
    EXPECT_NE(h.find("default: 5"), std::string::npos) << h;
    EXPECT_EQ(cli.get_double("ratio"), 0.1);
}

TEST(Cli, HelpTextMentionsOptions) {
    vu::Cli cli("prog", "does things");
    cli.add_int("count", 5, "how many");
    const std::string h = cli.help();
    EXPECT_NE(h.find("--count"), std::string::npos);
    EXPECT_NE(h.find("how many"), std::string::npos);
    EXPECT_NE(h.find("does things"), std::string::npos);
}

TEST(Json, AsIntThrowsInsteadOfWrapping) {
    using vu::json::Value;
    EXPECT_EQ(Value::parse("2147483647").as_int(), 2147483647);
    EXPECT_EQ(Value::parse("-2147483648").as_int(), -2147483647 - 1);
    for (const char* text :
         {"2147483648", "-2147483649", "4294967297", "1.5", "\"1\""})
        EXPECT_THROW((void)Value::parse(text).as_int(), std::invalid_argument)
            << text;
}
