#include "storage/columnar/memory.h"

#include <cstdio>

namespace snb::storage::columnar {

std::string MemoryBreakdown::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %12s %12s %10s %12s\n", "family",
                "bytes", "raw_bytes", "items", "shared");
  out += line;
  for (const MemoryFamily& f : families) {
    std::snprintf(line, sizeof(line), "%-28s %12zu %12zu %10zu %12zu\n",
                  f.name.c_str(), f.bytes, f.raw_bytes, f.items,
                  f.shared_bytes);
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-28s %12zu %12zu %10s %12zu\n", "total",
                total_bytes(), total_raw_bytes(), "", total_shared_bytes());
  out += line;
  std::snprintf(line, sizeof(line),
                "bytes/edge %.2f (raw %.2f, %.2fx)  bytes/message %.2f "
                "(raw %.2f, %.2fx)\n",
                BytesPerEdge(), RawBytesPerEdge(),
                BytesPerEdge() > 0 ? RawBytesPerEdge() / BytesPerEdge() : 0.0,
                BytesPerMessage(), RawBytesPerMessage(),
                BytesPerMessage() > 0
                    ? RawBytesPerMessage() / BytesPerMessage()
                    : 0.0);
  out += line;
  return out;
}

}  // namespace snb::storage::columnar
