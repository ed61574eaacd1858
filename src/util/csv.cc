#include "util/csv.h"

#include <cstring>

#include "util/check.h"
#include "util/failpoint.h"

namespace snb::util {

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Status CsvWriter::Open(const std::string& path,
                       const std::vector<std::string>& header) {
  SNB_CHECK(file_ == nullptr);
  SNB_FAILPOINT_STATUS("csv.open");
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  num_columns_ = header.size();
  WriteRow(header);
  rows_written_ = 0;  // header does not count as a row
  return Status::Ok();
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  SNB_CHECK(file_ != nullptr);
  SNB_CHECK_EQ(fields.size(), num_columns_);
  std::string line;
  size_t total = fields.size();
  for (const std::string& f : fields) total += f.size();
  line.reserve(total);
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line.push_back('|');
    line.append(fields[i]);
  }
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), file_);
  ++rows_written_;
}

void CsvWriter::WriteLine(std::string_view line) {
  SNB_CHECK(file_ != nullptr);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  ++rows_written_;
}

Status CsvWriter::Close() {
  if (file_ == nullptr) return Status::Ok();
  SNB_FAILPOINT_STATUS("csv.close");
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IoError("fclose failed");
  return Status::Ok();
}

namespace {

std::vector<std::string> SplitLine(std::string_view line, char sep) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      break;
    }
    fields.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

}  // namespace

StatusOr<CsvTable> ReadCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  CsvTable table;
  std::string buffer;
  char chunk[1 << 16];
  while (std::fgets(chunk, sizeof(chunk), f) != nullptr) {
    buffer.append(chunk);
    if (!buffer.empty() && buffer.back() == '\n') {
      buffer.pop_back();
      if (!buffer.empty() && buffer.back() == '\r') buffer.pop_back();
      if (table.header.empty()) {
        table.header = SplitLine(buffer, '|');
      } else {
        auto row = SplitLine(buffer, '|');
        if (row.size() != table.header.size()) {
          std::fclose(f);
          return Status::Corruption("row width mismatch in " + path);
        }
        table.rows.push_back(std::move(row));
      }
      buffer.clear();
    }
  }
  std::fclose(f);
  if (!buffer.empty()) {
    // Final line without trailing newline.
    if (table.header.empty()) {
      table.header = SplitLine(buffer, '|');
    } else {
      auto row = SplitLine(buffer, '|');
      if (row.size() != table.header.size()) {
        return Status::Corruption("row width mismatch in " + path);
      }
      table.rows.push_back(std::move(row));
    }
  }
  if (table.header.empty()) {
    return Status::Corruption("empty CSV file: " + path);
  }
  return table;
}

std::vector<std::string> SplitMultiValued(std::string_view field) {
  if (field.empty()) return {};
  return SplitLine(field, ';');
}

std::string JoinMultiValued(const std::vector<std::string>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(';');
    out.append(values[i]);
  }
  return out;
}

void AppendSanitized(std::string* out, std::string_view text) {
  const size_t start = out->size();
  out->append(text);
  for (size_t i = start; i < out->size(); ++i) {
    char& c = (*out)[i];
    if (c == '|' || c == ';' || c == '\n' || c == '\r') c = ' ';
  }
}

std::string SanitizeField(std::string_view text) {
  std::string out;
  AppendSanitized(&out, text);
  return out;
}

}  // namespace snb::util
