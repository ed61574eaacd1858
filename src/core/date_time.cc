#include "core/date_time.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/check.h"

namespace snb::core {

namespace {

// Howard Hinnant's days-from-civil algorithm (public domain).
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;                                // [0,399]
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;        // [0,146096]
  return era * 146097 + doe - 719468;
}

}  // namespace

Date DateFromCivil(int32_t year, int32_t month, int32_t day) {
  return static_cast<Date>(DaysFromCivil(year, month, day));
}

DateTime DateTimeFromCivil(int32_t year, int32_t month, int32_t day,
                           int32_t hour, int32_t minute, int32_t second,
                           int32_t millis) {
  return DateTimeFromDate(DateFromCivil(year, month, day)) +
         hour * kMillisPerHour + minute * kMillisPerMinute +
         second * kMillisPerSecond + millis;
}

int32_t Year(DateTime dt) { return CivilFromDate(DateFromDateTime(dt)).year; }

int32_t Month(DateTime dt) { return CivilFromDate(DateFromDateTime(dt)).month; }

int32_t DayOfMonth(DateTime dt) {
  return CivilFromDate(DateFromDateTime(dt)).day;
}

int32_t MonthsSpanInclusive(DateTime from, DateTime to) {
  CivilDate a = CivilFromDate(DateFromDateTime(from));
  CivilDate b = CivilFromDate(DateFromDateTime(to));
  return (b.year * 12 + b.month) - (a.year * 12 + a.month) + 1;
}

namespace {

/// Writes `v` (0 <= v < 10^width) as `width` zero-padded digits at `p`.
void PutDigits(char* p, int width, int32_t v) {
  for (int i = width - 1; i >= 0; --i) {
    p[i] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
}

}  // namespace

void AppendDate(std::string* out, Date date) {
  const CivilDate c = CivilFromDate(date);
  if (c.year < 0 || c.year > 9999) {
    // Room for any int32 field, so no output can be truncated.
    char buf[48];
    const int n = std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year,
                                c.month, c.day);
    out->append(buf, static_cast<size_t>(n));
    return;
  }
  char buf[10];
  PutDigits(buf, 4, c.year);
  buf[4] = '-';
  PutDigits(buf + 5, 2, c.month);
  buf[7] = '-';
  PutDigits(buf + 8, 2, c.day);
  out->append(buf, sizeof(buf));
}

void AppendDateTime(std::string* out, DateTime dt) {
  const Date date = DateFromDateTime(dt);
  AppendDate(out, date);
  // In [0, kMillisPerDay): DateFromDateTime floors.
  const int64_t ms = dt - DateTimeFromDate(date);
  auto field = [ms](int64_t unit, int64_t range) {
    return static_cast<int32_t>(ms / unit % range);
  };
  char buf[18];
  buf[0] = 'T';
  PutDigits(buf + 1, 2, field(kMillisPerHour, 24));
  buf[3] = ':';
  PutDigits(buf + 4, 2, field(kMillisPerMinute, 60));
  buf[6] = ':';
  PutDigits(buf + 7, 2, field(kMillisPerSecond, 60));
  buf[9] = '.';
  PutDigits(buf + 10, 3, field(1, 1000));
  std::memcpy(buf + 13, "+0000", 5);
  out->append(buf, sizeof(buf));
}

std::string FormatDate(Date date) {
  std::string out;
  AppendDate(&out, date);
  return out;
}

std::string FormatDateTime(DateTime dt) {
  std::string out;
  AppendDateTime(&out, dt);
  return out;
}

namespace {

bool ParseFixedInt(const char* s, int len, int32_t* out) {
  int32_t v = 0;
  for (int i = 0; i < len; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    v = v * 10 + (s[i] - '0');
  }
  *out = v;
  return true;
}

}  // namespace

bool ParseDate(const std::string& text, Date* out) {
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') return false;
  int32_t y, m, d;
  if (!ParseFixedInt(text.data(), 4, &y) ||
      !ParseFixedInt(text.data() + 5, 2, &m) ||
      !ParseFixedInt(text.data() + 8, 2, &d)) {
    return false;
  }
  if (m < 1 || m > 12 || d < 1 || d > 31) return false;
  *out = DateFromCivil(y, m, d);
  return true;
}

bool ParseDateTime(const std::string& text, DateTime* out) {
  // "yyyy-mm-ddTHH:MM:ss.sss" with optional "+0000" suffix.
  if (text.size() < 23 || text[10] != 'T' || text[13] != ':' ||
      text[16] != ':' || text[19] != '.') {
    return false;
  }
  Date date;
  if (!ParseDate(text.substr(0, 10), &date)) return false;
  int32_t hh = 0, mm = 0, ss = 0, ms = 0;
  if (!ParseFixedInt(text.data() + 11, 2, &hh) ||
      !ParseFixedInt(text.data() + 14, 2, &mm) ||
      !ParseFixedInt(text.data() + 17, 2, &ss) ||
      !ParseFixedInt(text.data() + 20, 3, &ms)) {
    return false;
  }
  if (hh > 23 || mm > 59 || ss > 59) return false;
  *out = DateTimeFromDate(date) + hh * kMillisPerHour + mm * kMillisPerMinute +
         ss * kMillisPerSecond + ms;
  return true;
}

}  // namespace snb::core
