// Pipe-separated CSV reading/writing in the Datagen output dialect
// (spec §2.3.4.2): '|' as primary field separator, ';' for multi-valued
// attributes, first line is the header.

#ifndef SNB_UTIL_CSV_H_
#define SNB_UTIL_CSV_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace snb::util {

/// Streaming writer for one pipe-separated CSV file.
class CsvWriter {
 public:
  CsvWriter() = default;
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Opens `path` for writing and emits the header row.
  Status Open(const std::string& path, const std::vector<std::string>& header);

  /// Appends one row; field count must match the header.
  void WriteRow(const std::vector<std::string>& fields);

  /// Low-level append of an already-joined line (no separator handling).
  void WriteLine(std::string_view line);

  Status Close();

  bool is_open() const { return file_ != nullptr; }
  size_t rows_written() const { return rows_written_; }

 private:
  std::FILE* file_ = nullptr;
  size_t num_columns_ = 0;
  size_t rows_written_ = 0;
};

/// Fully-parsed pipe-separated CSV file.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Reads an entire CSV file; the first line is interpreted as the header.
StatusOr<CsvTable> ReadCsv(const std::string& path);

/// Splits a single field containing a multi-valued attribute on ';'.
/// An empty input yields an empty vector (not one empty element).
std::vector<std::string> SplitMultiValued(std::string_view field);

/// Joins values with ';' for a multi-valued attribute field.
std::string JoinMultiValued(const std::vector<std::string>& values);

/// Replaces any separator characters ('|', ';', '\n', '\r') in generated
/// free text so that serialized rows stay parseable.
std::string SanitizeField(std::string_view text);

/// Appends SanitizeField(text) to `*out`.
void AppendSanitized(std::string* out, std::string_view text);

}  // namespace snb::util

#endif  // SNB_UTIL_CSV_H_
