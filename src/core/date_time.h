// Date and DateTime types per spec §2.3.1 (Table 2.1).
//
// Date       — day precision, serialized "yyyy-mm-dd".
// DateTime   — millisecond precision, GMT, serialized
//              "yyyy-mm-ddTHH:MM:ss.sss+0000".
//
// Internally a Date is the count of days since 1970-01-01 and a DateTime the
// count of milliseconds since the epoch; both are plain integers so that
// range predicates compile to integer comparisons. When a query compares a
// DateTime against a Date parameter, the Date converts to midnight GMT
// (spec §3.2 "Comparing Date and DateTime values").

#ifndef SNB_CORE_DATE_TIME_H_
#define SNB_CORE_DATE_TIME_H_

#include <cstdint>
#include <string>

namespace snb::core {

/// Days since 1970-01-01 (may be negative for earlier dates).
using Date = int32_t;

/// Milliseconds since 1970-01-01T00:00:00.000 GMT.
using DateTime = int64_t;

constexpr int64_t kMillisPerSecond = 1000;
constexpr int64_t kMillisPerMinute = 60 * kMillisPerSecond;
constexpr int64_t kMillisPerHour = 60 * kMillisPerMinute;
constexpr int64_t kMillisPerDay = 24 * kMillisPerHour;

/// Calendar date triple.
struct CivilDate {
  int32_t year;
  int32_t month;  // 1..12
  int32_t day;    // 1..31
};

/// Converts a calendar date to days since the epoch (proleptic Gregorian).
Date DateFromCivil(int32_t year, int32_t month, int32_t day);

/// Converts days since the epoch back to the calendar date (Howard
/// Hinnant's civil-from-days algorithm, public domain). Inline: BI 24
/// calls it once per message it groups.
constexpr CivilDate CivilFromDate(Date date) {
  const int64_t z = static_cast<int64_t>(date) + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;                             // [0,146096]
  const int64_t yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;        // [0,399]
  const int64_t y = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);      // [0,365]
  const int64_t mp = (5 * doy + 2) / 153;                           // [0,11]
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;                   // [1,31]
  const int64_t m = mp + (mp < 10 ? 3 : -9);                        // [1,12]
  return CivilDate{static_cast<int32_t>(y + (m <= 2)),
                   static_cast<int32_t>(m), static_cast<int32_t>(d)};
}

/// Builds a DateTime from calendar components.
DateTime DateTimeFromCivil(int32_t year, int32_t month, int32_t day,
                           int32_t hour = 0, int32_t minute = 0,
                           int32_t second = 0, int32_t millis = 0);

/// Midnight GMT of the given Date — the implicit Date→DateTime conversion
/// mandated by spec §3.2.
constexpr DateTime DateTimeFromDate(Date date) {
  return static_cast<DateTime>(date) * kMillisPerDay;
}

/// The Date containing the given instant (floor for negative values too).
constexpr Date DateFromDateTime(DateTime dt) {
  int64_t d = dt / kMillisPerDay;
  if (dt < 0 && dt % kMillisPerDay != 0) --d;
  return static_cast<Date>(d);
}

/// Extracts the calendar year of the instant (the year() query function).
int32_t Year(DateTime dt);

/// Extracts the calendar month, 1..12 (the month() query function).
int32_t Month(DateTime dt);

/// Extracts the day of month, 1..31.
int32_t DayOfMonth(DateTime dt);

/// Number of months spanned by [from, to] where partial months on both ends
/// count as one month — the BI 21 "zombie" month count (Jan 31 → Mar 1 = 3).
int32_t MonthsSpanInclusive(DateTime from, DateTime to);

/// Whole minutes between two instants (the IC 7 minutesLatency).
constexpr int32_t MinutesBetween(DateTime from, DateTime to) {
  return static_cast<int32_t>((to - from) / kMillisPerMinute);
}

/// Formats as "yyyy-mm-dd". A year outside 0..9999 prints all its digits
/// (and its sign).
std::string FormatDate(Date date);

/// Formats as "yyyy-mm-ddTHH:MM:ss.sss+0000".
std::string FormatDateTime(DateTime dt);

/// Append FormatDate's / FormatDateTime's text to `*out`, for writers that
/// build a line in one string.
void AppendDate(std::string* out, Date date);
void AppendDateTime(std::string* out, DateTime dt);

/// Parses "yyyy-mm-dd"; returns false on malformed input.
bool ParseDate(const std::string& text, Date* out);

/// Parses "yyyy-mm-ddTHH:MM:ss.sss+0000" (timezone suffix optional);
/// returns false on malformed input.
bool ParseDateTime(const std::string& text, DateTime* out);

}  // namespace snb::core

#endif  // SNB_CORE_DATE_TIME_H_
