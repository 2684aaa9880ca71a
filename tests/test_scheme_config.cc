/**
 * @file
 * Unit tests for the Table 2 scheme-name grammar.
 */

#include <gtest/gtest.h>

#include "core/scheme_config.hh"

namespace tlat::core
{
namespace
{

SchemeConfig
mustParse(const std::string &name)
{
    const auto config = SchemeConfig::parse(name);
    EXPECT_TRUE(config.has_value()) << name;
    return config.value_or(SchemeConfig{});
}

TEST(SchemeConfig, ParsesFlagshipAtConfiguration)
{
    const SchemeConfig config =
        mustParse("AT(AHRT(512,12SR),PT(2^12,A2),)");
    EXPECT_EQ(config.scheme, Scheme::TwoLevelAdaptive);
    EXPECT_EQ(config.hrtKind, TableKind::Associative);
    EXPECT_EQ(config.hrtEntries, 512u);
    EXPECT_EQ(config.historyBits, 12u);
    EXPECT_EQ(config.automaton, AutomatonKind::A2);
    EXPECT_EQ(config.data, DataMode::None);
}

TEST(SchemeConfig, ParsesIdealHrt)
{
    const SchemeConfig config =
        mustParse("AT(IHRT(,12SR),PT(2^12,A2),)");
    EXPECT_EQ(config.hrtKind, TableKind::Ideal);
    EXPECT_EQ(config.hrtEntries, 0u);
}

TEST(SchemeConfig, ParsesEveryTable2AtRow)
{
    // The eleven AT rows of Table 2.
    const char *rows[] = {
        "AT(AHRT(256,12SR),PT(2^12,A2),)",
        "AT(AHRT(512,12SR),PT(2^12,A2),)",
        "AT(AHRT(512,12SR),PT(2^12,A3),)",
        "AT(AHRT(512,12SR),PT(2^12,A4),)",
        "AT(AHRT(512,12SR),PT(2^12,LT),)",
        "AT(AHRT(512,10SR),PT(2^10,A2),)",
        "AT(AHRT(512,8SR),PT(2^8,A2),)",
        "AT(AHRT(512,6SR),PT(2^6,A2),)",
        "AT(HHRT(256,12SR),PT(2^12,A2),)",
        "AT(HHRT(512,12SR),PT(2^12,A2),)",
        "AT(IHRT(,12SR),PT(2^12,A2),)",
    };
    for (const char *row : rows) {
        const SchemeConfig config = mustParse(row);
        EXPECT_EQ(config.scheme, Scheme::TwoLevelAdaptive);
        // Round trip through text().
        EXPECT_EQ(config.text(), row);
    }
}

TEST(SchemeConfig, ParsesStaticTrainingRows)
{
    const SchemeConfig same =
        mustParse("ST(AHRT(512,12SR),PT(2^12,PB),Same)");
    EXPECT_EQ(same.scheme, Scheme::StaticTraining);
    EXPECT_EQ(same.data, DataMode::Same);
    const SchemeConfig diff =
        mustParse("ST(IHRT(,12SR),PT(2^12,PB),Diff)");
    EXPECT_EQ(diff.data, DataMode::Diff);
    EXPECT_EQ(diff.hrtKind, TableKind::Ideal);
    EXPECT_EQ(same.text(), "ST(AHRT(512,12SR),PT(2^12,PB),Same)");
}

TEST(SchemeConfig, ParsesLeeSmithRows)
{
    const char *rows[] = {
        "LS(AHRT(512,A2),,)", "LS(AHRT(512,LT),,)",
        "LS(HHRT(512,A2),,)", "LS(HHRT(512,LT),,)",
        "LS(IHRT(,A2),,)",    "LS(IHRT(,LT),,)",
    };
    for (const char *row : rows) {
        const SchemeConfig config = mustParse(row);
        EXPECT_EQ(config.scheme, Scheme::LeeSmithBtb);
        EXPECT_EQ(config.text(), row);
    }
    EXPECT_EQ(mustParse("LS(AHRT(512,A2),,)").automaton,
              AutomatonKind::A2);
    EXPECT_EQ(mustParse("LS(AHRT(512,LT),,)").automaton,
              AutomatonKind::LastTime);
}

TEST(SchemeConfig, ParsesStaticSchemes)
{
    EXPECT_EQ(mustParse("AlwaysTaken").scheme, Scheme::AlwaysTaken);
    EXPECT_EQ(mustParse("AlwaysNotTaken").scheme,
              Scheme::AlwaysNotTaken);
    EXPECT_EQ(mustParse("BTFN").scheme, Scheme::Btfn);
    EXPECT_EQ(mustParse("Profile").scheme, Scheme::Profile);
    EXPECT_EQ(mustParse("Profile").data, DataMode::Same);
}

TEST(SchemeConfig, ParsesGshareRows)
{
    const SchemeConfig config = mustParse("GSH(12,A2)");
    EXPECT_EQ(config.scheme, Scheme::Gshare);
    EXPECT_EQ(config.historyBits, 12u);
    EXPECT_EQ(config.automaton, AutomatonKind::A2);
    EXPECT_EQ(config.text(), "GSH(12,A2)");
    EXPECT_EQ(mustParse("GSH(8,LT)").automaton,
              AutomatonKind::LastTime);
    EXPECT_EQ(mustParse("GSH(2^4,A2)").historyBits, 16u);
}

TEST(SchemeConfig, ParsesCombiningRows)
{
    const SchemeConfig config = mustParse(
        "CMB(AT(AHRT(512,12SR),PT(2^12,A2),),LS(AHRT(512,A2),,),"
        "CT(2^12))");
    EXPECT_EQ(config.scheme, Scheme::Combining);
    EXPECT_EQ(config.chooserBits, 12u);
    ASSERT_EQ(config.components.size(), 2u);
    EXPECT_EQ(config.components[0].scheme, Scheme::TwoLevelAdaptive);
    EXPECT_EQ(config.components[1].scheme, Scheme::LeeSmithBtb);
    // Round trip: text() renders exactly the canonical spelling.
    EXPECT_EQ(config.text(),
              "CMB(AT(AHRT(512,12SR),PT(2^12,A2),),"
              "LS(AHRT(512,A2),,),CT(2^12))");

    // Components recurse through the full grammar: gshare and the
    // static schemes are valid component spellings.
    const SchemeConfig nested =
        mustParse("CMB(GSH(10,A2),BTFN,CT(2^8))");
    EXPECT_EQ(nested.components[0].scheme, Scheme::Gshare);
    EXPECT_EQ(nested.components[1].scheme, Scheme::Btfn);
    EXPECT_EQ(nested.chooserBits, 8u);
    EXPECT_EQ(nested.text(), "CMB(GSH(10,A2),BTFN,CT(2^8))");
}

TEST(SchemeConfig, RejectsMalformedGshareAndCombining)
{
    const char *bad[] = {
        "gshare",                         // bare word is not a scheme
        "GSH",                            // no clauses
        "GSH(12)",                        // missing automaton
        "GSH(12,A2,A2)",                  // too many clauses
        "GSH(0,A2)",                      // history bits out of range
        "GSH(25,A2)",                     // history bits out of range
        "GSH(12,PB)",                     // PB is ST-only
        "CMB(BTFN,CT(2^12))",             // missing a component
        "CMB(BTFN,AlwaysTaken,CT(12))",   // chooser not a power of two
        "CMB(BTFN,AlwaysTaken,CT(2^0))",  // chooser too small
        "CMB(BTFN,AlwaysTaken,CT(2^25))", // chooser too large
        "CMB(BTFN,AlwaysTaken,PT(2^12))", // wrong chooser keyword
        "CMB(BTFN,AlwaysTaken,CT(2^12),)",// trailing clause
        "CMB(BTFN,NotAScheme,CT(2^12))",  // bad component
    };
    for (const char *name : bad) {
        EXPECT_FALSE(SchemeConfig::parse(name).has_value()) << name;
    }
}

TEST(SchemeConfig, AcceptsWhitespace)
{
    EXPECT_TRUE(SchemeConfig::parse(
                    "  AT(AHRT(512,12SR),PT(2^12,A2),)  ")
                    .has_value());
}

TEST(SchemeConfig, RejectsMalformedNames)
{
    const char *bad[] = {
        "",
        "XX(AHRT(512,12SR),PT(2^12,A2),)",
        "AT(AHRT(512,12SR),PT(2^12,A2))",       // missing clause
        "AT(AHRT(512,12SR),PT(2^12,A2),Same)",  // AT takes no data
        "AT(AHRT(0,12SR),PT(2^12,A2),)",        // zero entries
        "AT(AHRT(512,12),PT(2^12,A2),)",        // not a SR spec
        "AT(AHRT(512,12SR),PT(2^10,A2),)",      // PT size mismatch
        "AT(AHRT(512,12SR),PT(2^12,A9),)",      // unknown automaton
        "AT(QHRT(512,12SR),PT(2^12,A2),)",      // unknown table
        "AT(IHRT(512,12SR),PT(2^12,A2),)",      // IHRT with a size
        "ST(AHRT(512,12SR),PT(2^12,PB),)",      // ST needs Same/Diff
        "ST(AHRT(512,12SR),PT(2^12,A2),Same)",  // ST needs PB
        "LS(AHRT(512,A2),PT(2^12,A2),)",        // LS has no PT
        "LS(AHRT(512,12SR),,)",                 // LS entry is automaton
        "AlwaysSometimes",
    };
    for (const char *name : bad) {
        EXPECT_FALSE(SchemeConfig::parse(name).has_value()) << name;
    }
}

TEST(SchemeConfig, RejectsHrtSizesTheTablesCannotBuild)
{
    const char *bad[] = {
        "AT(AHRT(6,12SR),PT(2^12,A2),)",    // not whole 4-way sets
        "AT(AHRT(12,12SR),PT(2^12,A2),)",   // 3 sets: not a power of 2
        "LS(AHRT(6,A2),,)",
        "ST(HHRT(5,12SR),PT(2^12,PB),Same)", // HHRT not a power of 2
        "LS(HHRT(7,LT),,)",
        "AT(AHRT(4294967300,12SR),PT(2^12,A2),)", // past the 2^24 cap
        "AT(HHRT(33554432,12SR),PT(2^12,A2),)",   // 2^25
        "CMB(LS(AHRT(6,A2),,),BTFN,CT(2^4))",     // inside a component
    };
    for (const char *name : bad) {
        EXPECT_FALSE(SchemeConfig::parse(name).has_value()) << name;
    }
    // The boundaries that remain: one 4-way set, a 1-entry HHRT and
    // the 2^24 cap itself.
    for (const char *name : {
             "AT(AHRT(4,12SR),PT(2^12,A2),)",
             "LS(HHRT(1,A2),,)",
             "AT(AHRT(16777216,12SR),PT(2^12,A2),)",
             "LS(HHRT(16777216,LT),,)",
         }) {
        EXPECT_TRUE(SchemeConfig::parse(name).has_value()) << name;
    }
}

TEST(SchemeConfig, HistoryBitsBoundaries)
{
    EXPECT_TRUE(SchemeConfig::parse("AT(AHRT(512,1SR),PT(2^1,A2),)")
                    .has_value());
    EXPECT_FALSE(SchemeConfig::parse("AT(AHRT(512,0SR),PT(2^0,A2),)")
                     .has_value());
    EXPECT_FALSE(
        SchemeConfig::parse("AT(AHRT(512,25SR),PT(2^25,A2),)")
            .has_value());
}

TEST(SchemeConfig, TextForStaticSchemes)
{
    SchemeConfig config;
    config.scheme = Scheme::Btfn;
    EXPECT_EQ(config.text(), "BTFN");
    config.scheme = Scheme::AlwaysTaken;
    EXPECT_EQ(config.text(), "AlwaysTaken");
}

} // namespace
} // namespace tlat::core
