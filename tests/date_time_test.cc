// Unit tests for Date / DateTime arithmetic and serialization (spec
// Table 2.1 formats).

#include <gtest/gtest.h>

#include "core/date_time.h"

namespace snb::core {
namespace {

TEST(DateTest, EpochIsZero) {
  EXPECT_EQ(DateFromCivil(1970, 1, 1), 0);
  CivilDate c = CivilFromDate(0);
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
}

TEST(DateTest, KnownDates) {
  EXPECT_EQ(DateFromCivil(2010, 1, 1), 14610);
  EXPECT_EQ(DateFromCivil(1969, 12, 31), -1);
}

TEST(DateTest, LeapYearHandling) {
  Date feb29 = DateFromCivil(2012, 2, 29);
  Date mar1 = DateFromCivil(2012, 3, 1);
  EXPECT_EQ(mar1 - feb29, 1);
  // 2011 is not a leap year: Feb 28 → Mar 1 is one day.
  EXPECT_EQ(DateFromCivil(2011, 3, 1) - DateFromCivil(2011, 2, 28), 1);
}

class CivilRoundtripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CivilRoundtripTest, Roundtrips) {
  auto [y, m, d] = GetParam();
  Date date = DateFromCivil(y, m, d);
  CivilDate c = CivilFromDate(date);
  EXPECT_EQ(c.year, y);
  EXPECT_EQ(c.month, m);
  EXPECT_EQ(c.day, d);
}

INSTANTIATE_TEST_SUITE_P(
    Dates, CivilRoundtripTest,
    ::testing::Values(std::make_tuple(1970, 1, 1),
                      std::make_tuple(2000, 2, 29),
                      std::make_tuple(2010, 12, 31),
                      std::make_tuple(2013, 6, 15),
                      std::make_tuple(1900, 3, 1),
                      std::make_tuple(2100, 7, 4),
                      std::make_tuple(1969, 12, 31)));

TEST(DateTimeTest, ComponentsExtract) {
  DateTime dt = DateTimeFromCivil(2012, 7, 14, 13, 45, 59, 123);
  EXPECT_EQ(Year(dt), 2012);
  EXPECT_EQ(Month(dt), 7);
  EXPECT_EQ(DayOfMonth(dt), 14);
}

TEST(DateTimeTest, DateConversionIsMidnight) {
  Date d = DateFromCivil(2011, 3, 5);
  DateTime dt = DateTimeFromDate(d);
  EXPECT_EQ(FormatDateTime(dt), "2011-03-05T00:00:00.000+0000");
  EXPECT_EQ(DateFromDateTime(dt), d);
  EXPECT_EQ(DateFromDateTime(dt + kMillisPerDay - 1), d);
  EXPECT_EQ(DateFromDateTime(dt + kMillisPerDay), d + 1);
}

TEST(DateTimeTest, NegativeFloorDivision) {
  // One millisecond before the epoch is still 1969-12-31.
  EXPECT_EQ(DateFromDateTime(-1), -1);
}

TEST(FormatTest, DateFormat) {
  EXPECT_EQ(FormatDate(DateFromCivil(2010, 1, 1)), "2010-01-01");
  EXPECT_EQ(FormatDate(DateFromCivil(1995, 11, 23)), "1995-11-23");
}

TEST(FormatTest, DateTimeFormat) {
  DateTime dt = DateTimeFromCivil(2012, 2, 29, 23, 59, 59, 999);
  EXPECT_EQ(FormatDateTime(dt), "2012-02-29T23:59:59.999+0000");
}

TEST(FormatTest, EdgeAndOutOfRangeYears) {
  EXPECT_EQ(FormatDateTime(0), "1970-01-01T00:00:00.000+0000");
  EXPECT_EQ(FormatDateTime(-1), "1969-12-31T23:59:59.999+0000");
  EXPECT_EQ(FormatDateTime(DateTimeFromCivil(1, 1, 1, 0, 0, 0, 1)),
            "0001-01-01T00:00:00.001+0000");
  EXPECT_EQ(FormatDateTime(DateTimeFromCivil(9999, 12, 31, 23, 59, 59, 999)),
            "9999-12-31T23:59:59.999+0000");
  // Years without four digits print all of them, sign included.
  EXPECT_EQ(FormatDateTime(DateTimeFromCivil(10000, 1, 1)),
            "10000-01-01T00:00:00.000+0000");
  EXPECT_EQ(FormatDateTime(DateTimeFromCivil(-3, 6, 15, 12, 0, 0, 5)),
            "-003-06-15T12:00:00.005+0000");
  EXPECT_EQ(FormatDate(DateFromCivil(-3, 6, 15)), "-003-06-15");
}

TEST(FormatTest, AppendExtendsTheString) {
  std::string out = "x|";
  AppendDate(&out, DateFromCivil(2012, 2, 29));
  out += '|';
  AppendDateTime(&out, DateTimeFromCivil(2011, 8, 17, 4, 5, 6, 78));
  EXPECT_EQ(out, "x|2012-02-29|2011-08-17T04:05:06.078+0000");
}

TEST(ParseTest, DateRoundtrip) {
  Date d;
  ASSERT_TRUE(ParseDate("2012-02-29", &d));
  EXPECT_EQ(d, DateFromCivil(2012, 2, 29));
  EXPECT_EQ(FormatDate(d), "2012-02-29");
}

TEST(ParseTest, DateRejectsMalformed) {
  Date d;
  EXPECT_FALSE(ParseDate("2012/02/29", &d));
  EXPECT_FALSE(ParseDate("2012-2-29", &d));
  EXPECT_FALSE(ParseDate("2012-13-01", &d));
  EXPECT_FALSE(ParseDate("2012-00-01", &d));
  EXPECT_FALSE(ParseDate("", &d));
  EXPECT_FALSE(ParseDate("abcd-ef-gh", &d));
}

TEST(ParseTest, DateTimeRoundtrip) {
  DateTime dt = DateTimeFromCivil(2011, 8, 17, 4, 5, 6, 78);
  DateTime parsed;
  ASSERT_TRUE(ParseDateTime(FormatDateTime(dt), &parsed));
  EXPECT_EQ(parsed, dt);
}

TEST(ParseTest, DateTimeWithoutTimezoneSuffix) {
  DateTime dt;
  ASSERT_TRUE(ParseDateTime("2010-05-06T07:08:09.010", &dt));
  EXPECT_EQ(dt, DateTimeFromCivil(2010, 5, 6, 7, 8, 9, 10));
}

TEST(ParseTest, DateTimeRejectsMalformed) {
  DateTime dt;
  EXPECT_FALSE(ParseDateTime("2010-05-06 07:08:09.010", &dt));
  EXPECT_FALSE(ParseDateTime("2010-05-06T25:08:09.010", &dt));
  EXPECT_FALSE(ParseDateTime("2010-05-06T07:68:09.010", &dt));
  EXPECT_FALSE(ParseDateTime("short", &dt));
}

TEST(MonthsSpanTest, SpecExample) {
  // Spec BI 21: creationDate Jan 31, endDate Mar 1 → 3 months.
  DateTime from = DateTimeFromCivil(2011, 1, 31);
  DateTime to = DateTimeFromCivil(2011, 3, 1);
  EXPECT_EQ(MonthsSpanInclusive(from, to), 3);
}

TEST(MonthsSpanTest, SameMonthIsOne) {
  EXPECT_EQ(MonthsSpanInclusive(DateTimeFromCivil(2011, 5, 1),
                                DateTimeFromCivil(2011, 5, 31)),
            1);
}

TEST(MonthsSpanTest, AcrossYearBoundary) {
  EXPECT_EQ(MonthsSpanInclusive(DateTimeFromCivil(2010, 12, 15),
                                DateTimeFromCivil(2011, 1, 15)),
            2);
  EXPECT_EQ(MonthsSpanInclusive(DateTimeFromCivil(2010, 1, 1),
                                DateTimeFromCivil(2012, 12, 31)),
            36);
}

TEST(MinutesBetweenTest, WholeMinutes) {
  DateTime a = DateTimeFromCivil(2011, 1, 1, 10, 0, 0, 0);
  DateTime b = DateTimeFromCivil(2011, 1, 1, 10, 42, 30, 0);
  EXPECT_EQ(MinutesBetween(a, b), 42);  // truncated
}

}  // namespace
}  // namespace snb::core
