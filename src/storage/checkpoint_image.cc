#include "storage/checkpoint_image.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace snb::storage {

static_assert(std::endian::native == std::endian::little,
              "the image stores raw little-endian arrays");

namespace {

// Section kinds, in file order; relation i of Graph::Relations() is
// kRelationBase + i and sits between kCommentStrings and kMessageIndex.
enum Kind : uint32_t {
  kMeta = 1,
  kStatic,
  kDictionary,
  kPersons,
  kForums,
  kPosts,
  kPostStrings,
  kComments,
  kCommentStrings,
  kMessageIndex,
  kRelationBase = 32,
};
constexpr size_t kFixedSections = kMessageIndex;  // kinds 1..kMessageIndex

constexpr uint32_t kCommentBit = Graph::kCommentBit;

void PutU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
void PutU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

util::Status WriteAll(int fd, const void* data, size_t n,
                      const std::string& path) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError("image write failed for " + path + ": " +
                                   std::strerror(errno));
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  return util::Status::Ok();
}

/// Reads up to `n` bytes; returns how many arrived before end of file, or
/// -1 on a read error.
ssize_t ReadUpTo(int fd, void* data, size_t n) {
  auto* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

/// Closes `fd` when it goes out of scope.
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

template <typename T>
constexpr bool kRawArray = std::is_trivially_copyable_v<T> &&
                           std::has_unique_object_representations_v<T>;

}  // namespace

/// The image codec: friend of every storage class whose representation it
/// writes, so the format lives in this one file. Layout() is the single
/// description of what goes where; Writer and Reader are its two archives.
struct ImageCodec {
  class Writer;
  class Reader;

  static size_t NumSections() {
    return kFixedSections + Graph::Relations().size();
  }

  /// The graph a decode fills in.
  static std::unique_ptr<Graph> EmptyGraph() {
    return std::unique_ptr<Graph>(new Graph());
  }

  /// No overflow, no update tails, no tombstones: nothing a build would
  /// not have produced.
  static bool Frozen(const Graph& g) {
    if (g.HasTombstones() || g.TombstoneEpoch() != 0 ||
        g.message_index_.tail_size() != 0) {
      return false;
    }
    for (const Graph::NamedRelation& r : Graph::Relations()) {
      const AdjacencyList& a = g.*r.list;
      if (a.num_overflow_edges() != 0 || !a.head_.empty() ||
          a.num_nodes() != a.csr().num_nodes()) {
        return false;
      }
    }
    for (const Graph::FrozenString& s : Graph::FrozenStrings()) {
      if ((g.*s.column).tail_.size() != 0) return false;
    }
    return true;
  }

  /// Every section in file order, with each section's fields in payload
  /// order. `G` is `const Graph` for the writer and `Graph` for the reader.
  template <typename Archive, typename G>
  static void Layout(Archive& ar, G& g) {
    ar.Section(kMeta, [&] { ar.Meta(g); });
    ar.Section(kStatic, [&] { ar.Static(g); });
    ar.Section(kDictionary, [&] { ar.Dict(g.dict_); });
    ar.Section(kPersons, [&] {
      ar.Array(g.person_id_);
      ar.Array(g.person_birthday_);
      ar.Array(g.person_creation_);
      ar.Array(g.person_city_);
      ar.Array(g.person_country_);
      ar.Array(g.person_gender_code_);
      ar.Array(g.person_browser_code_);
      ar.Array(g.person_msg_date_min_);
      ar.Array(g.person_msg_date_max_);
      ar.FrozenStrings(g.person_first_name_);
      ar.FrozenStrings(g.person_last_name_);
      ar.FrozenStrings(g.person_location_ip_);
      ar.List(g.person_emails_);
      ar.List(g.person_speaks_);
      ar.List(g.person_study_at_);
      ar.List(g.person_work_at_);
    });
    ar.Section(kForums, [&] {
      ar.Array(g.forum_id_);
      ar.FrozenStrings(g.forum_title_);
      ar.Array(g.forum_creation_);
      ar.Array(g.forum_moderator_);
      ar.Array(g.forum_kind_);
    });
    ar.Section(kPosts, [&] {
      ar.Array(g.post_id_);
      ar.Array(g.post_length_);
      ar.Array(g.post_creation_);
      ar.Array(g.post_creator_);
      ar.Array(g.post_forum_);
      ar.Array(g.post_country_);
      ar.Array(g.post_browser_code_);
      ar.Array(g.post_language_code_);
      ar.Array(g.post_like_count_);
    });
    ar.Section(kPostStrings, [&] {
      ar.FrozenStrings(g.post_content_);
      ar.FrozenStrings(g.post_image_file_);
      ar.FrozenStrings(g.post_location_ip_);
    });
    ar.Section(kComments, [&] {
      ar.Array(g.comment_id_);
      ar.Array(g.comment_length_);
      ar.Array(g.comment_creation_);
      ar.Array(g.comment_creator_);
      ar.Array(g.comment_country_);
      ar.Array(g.comment_reply_of_);
      ar.Array(g.comment_root_post_);
      ar.Array(g.comment_forum_);
      ar.Array(g.comment_browser_code_);
      ar.Array(g.comment_root_language_code_);
      ar.Array(g.comment_like_count_);
    });
    ar.Section(kCommentStrings, [&] {
      ar.FrozenStrings(g.comment_content_);
      ar.FrozenStrings(g.comment_location_ip_);
    });
    const std::span<const Graph::NamedRelation> relations =
        Graph::Relations();
    for (size_t i = 0; i < relations.size(); ++i) {
      const Graph::NamedRelation& r = relations[i];
      ar.Section(kRelationBase + static_cast<uint32_t>(i),
                 [&] { ar.Relation(g.*r.list, r); });
    }
    ar.Section(kMessageIndex, [&] { ar.Index(g.message_index_); });
  }

  /// The static records, field by field (shared by both archives).
  template <typename Archive, typename Place>
  static void PlaceFields(Archive& ar, Place& p) {
    ar.Value(p.id);
    ar.Str(p.name);
    ar.Str(p.url);
    ar.Value(p.type);
    ar.Value(p.part_of);
  }
  template <typename Archive, typename Organisation>
  static void OrganisationFields(Archive& ar, Organisation& o) {
    ar.Value(o.id);
    ar.Value(o.type);
    ar.Str(o.name);
    ar.Str(o.url);
    ar.Value(o.place);
  }
  template <typename Archive, typename TagClass>
  static void TagClassFields(Archive& ar, TagClass& tc) {
    ar.Value(tc.id);
    ar.Str(tc.name);
    ar.Str(tc.url);
    ar.Value(tc.parent);
  }
  template <typename Archive, typename Tag>
  static void TagFields(Archive& ar, Tag& t) {
    ar.Value(t.id);
    ar.Str(t.name);
    ar.Str(t.url);
    ar.Value(t.tag_class);
  }
  template <typename Archive, typename Net>
  static void StaticRecords(Archive& ar, Net& net) {
    ar.Records(net.places, [&](auto& p) { PlaceFields(ar, p); });
    ar.Records(net.organisations,
               [&](auto& o) { OrganisationFields(ar, o); });
    ar.Records(net.tag_classes, [&](auto& tc) { TagClassFields(ar, tc); });
    ar.Records(net.tags, [&](auto& t) { TagFields(ar, t); });
  }

  /// Checks that reach across sections, then rebuilds what the image does
  /// not store: the id tables and the tombstone bitmaps.
  static util::Status Finish(const Reader& r, Graph& g);
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

class ImageCodec::Writer {
 public:
  Writer(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  const util::Status& status() const { return status_; }

  util::Status Header() {
    uint8_t header[kImageHeaderBytes];
    std::memcpy(header, kImageMagic, sizeof(kImageMagic));
    PutU32(header + 8, kImageVersion);
    PutU32(header + 12, static_cast<uint32_t>(NumSections()));
    return WriteAll(fd_, header, sizeof(header), path_);
  }

  template <typename Fields>
  void Section(uint32_t kind, Fields&& fields) {
    if (!status_.ok()) return;
    buf_.clear();
    fields();
    status_ = Emit(kind);
  }

  template <typename T>
  void Value(const T& v) {
    static_assert(kRawArray<T>);
    Bytes(&v, sizeof(T));
  }
  void Str(std::string_view s) {
    Value(uint64_t{s.size()});
    Bytes(s.data(), s.size());
  }
  template <typename T>
  void Array(const std::vector<T>& v) {
    static_assert(kRawArray<T>);
    Value(uint64_t{v.size()});
    Bytes(v.data(), v.size() * sizeof(T));
  }
  template <typename T, typename F>
  void Records(const std::vector<T>& records, F&& fields) {
    Value(uint64_t{records.size()});
    for (const T& record : records) fields(record);
  }

  void Meta(const Graph& g) {
    Value(g.compaction_epoch_);
    Value(uint64_t{g.NumPersons()});
    Value(uint64_t{g.NumForums()});
    Value(uint64_t{g.NumPosts()});
    Value(uint64_t{g.NumComments()});
  }
  void Static(const Graph& g) { StaticRecords(*this, *g.static_); }
  void Dict(const columnar::Dictionary& dict) {
    Value(uint64_t{dict.size()});
    for (uint32_t code = 0; code < dict.size(); ++code) {
      Str(dict.Decode(code));
    }
  }

  void FrozenStrings(const columnar::StringColumn& col) {
    SNB_CHECK(col.base_ != nullptr && col.tail_.size() == 0);
    Rows(*col.base_);
  }
  template <typename T>
  void List(const columnar::ListColumn<T>& col) {
    Array(col.offsets_);
    if constexpr (std::is_same_v<T, std::string>) {
      SNB_CHECK(col.values_.base_ == nullptr);
      Rows(col.values_.tail_);
    } else {
      // Field by field: the structs carry padding.
      std::vector<core::Id> ids;
      std::vector<int32_t> years;
      for (const T& item : col.values_) {
        if constexpr (std::is_same_v<T, core::StudyAt>) {
          ids.push_back(item.university);
          years.push_back(item.class_year);
        } else {
          ids.push_back(item.company);
          years.push_back(item.work_from);
        }
      }
      Array(ids);
      Array(years);
    }
  }

  void Relation(const AdjacencyList& a, const Graph::NamedRelation&) {
    const columnar::CompressedCsr& csr = *a.csr_;
    Value(uint64_t{a.num_nodes_});
    Value(uint8_t{a.with_dates_});
    Value(uint64_t{csr.num_edges_});
    Column(csr.offsets_);
    Column(csr.targets_);
    Column(csr.dates_);
  }
  void Index(const MessageDateIndex& idx) {
    Array(idx.base_->refs);
    Column(idx.base_->dates);
    Array(idx.base_like_max_);
  }

 private:
  void Bytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  void Rows(const columnar::StringColumn::Rows& rows) {
    Array(rows.offsets);
    Str(rows.chars);
  }
  void Column(const columnar::ZonedColumn& col) {
    Value(uint64_t{col.size()});
    Value(uint64_t{col.num_blocks()});
    for (const columnar::ColumnBlock& block : col.blocks_) {
      block.SerializeTo(&buf_);
    }
  }

  /// Writes the section header and payload. The torn-write site writes
  /// half the payload before firing: in crash mode the process dies with a
  /// short section on disk, in error mode the Status is returned.
  util::Status Emit(uint32_t kind) {
    uint8_t header[kImageSectionHeaderBytes];
    PutU32(header, kind);
    PutU32(header + 4, util::Crc32c(buf_.data(), buf_.size()));
    PutU64(header + 8, buf_.size());
    SNB_RETURN_IF_ERROR(WriteAll(fd_, header, sizeof(header), path_));
    size_t done = 0;
    static const bool torn_site_registered =
        util::failpoint::RegisterSite("checkpoint.image.write");
    (void)torn_site_registered;
    if (util::failpoint::AnyArmed() &&
        util::failpoint::IsArmed("checkpoint.image.write")) {
      done = buf_.size() / 2;
      SNB_RETURN_IF_ERROR(WriteAll(fd_, buf_.data(), done, path_));
      SNB_RETURN_IF_ERROR(util::failpoint::Hit("checkpoint.image.write"));
    }
    return WriteAll(fd_, buf_.data() + done, buf_.size() - done, path_);
  }

  int fd_;
  std::string path_;
  std::string buf_;  // the current section's payload
  util::Status status_;
};

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Reads one section at a time into a reused buffer, checks its kind,
/// length and CRC, then parses it field by field. The first failure
/// sticks: every later call is a no-op, so parsing code checks status()
/// before it relies on what it read.
class ImageCodec::Reader {
 public:
  Reader(int fd, uint64_t file_size) : fd_(fd), file_size_(file_size) {}

  const util::Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }

  util::Status Header() {
    uint8_t header[kImageHeaderBytes];
    if (!ReadExact(header, sizeof(header))) {
      Fail("truncated header");
    } else if (std::memcmp(header, kImageMagic, sizeof(kImageMagic)) != 0) {
      Fail("bad magic");
    } else if (GetU32(header + 8) != kImageVersion) {
      Fail("unsupported version " + std::to_string(GetU32(header + 8)));
    } else if (GetU32(header + 12) != NumSections()) {
      Fail("header names " + std::to_string(GetU32(header + 12)) +
           " sections, expected " + std::to_string(NumSections()));
    }
    return status_;
  }

  /// Corruption when bytes follow the last section.
  util::Status End() {
    if (ok() && offset_ != file_size_) Fail("trailing bytes after the image");
    return status_;
  }

  template <typename Fields>
  void Section(uint32_t kind, Fields&& fields) {
    if (!ok()) return;
    section_ = kind;
    uint8_t header[kImageSectionHeaderBytes];
    if (!ReadExact(header, sizeof(header))) {
      Fail("truncated before the section");
      return;
    }
    if (GetU32(header) != kind) {
      Fail("found section kind " + std::to_string(GetU32(header)));
      return;
    }
    const uint64_t len = GetU64(header + 8);
    if (len > file_size_ - offset_) {
      Fail("payload runs past the end of the file");
      return;
    }
    if (buf_.size() < len) buf_.resize(len);
    len_ = static_cast<size_t>(len);
    pos_ = 0;
    if (!ReadExact(buf_.data(), len_)) {
      Fail("truncated payload");
      return;
    }
    if (util::Crc32c(buf_.data(), len_) != GetU32(header + 4)) {
      Fail("CRC mismatch");
      return;
    }
    fields();
    if (ok() && pos_ != len_) Fail("trailing bytes in the payload");
  }

  template <typename T>
  void Value(T& v) {
    static_assert(kRawArray<T>);
    Take(&v, sizeof(T));
  }
  void Str(std::string& s) {
    uint64_t n = 0;
    Value(n);
    if (!ok()) return;
    if (n > Remaining()) {
      Fail("string overruns the section");
      return;
    }
    s.assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
  }
  template <typename T>
  void Array(std::vector<T>& v) {
    static_assert(kRawArray<T>);
    uint64_t n = 0;
    Value(n);
    if (!ok()) return;
    if (n > Remaining() / sizeof(T)) {
      Fail("array overruns the section");
      return;
    }
    std::vector<T> out(n);
    Take(out.data(), n * sizeof(T));
    v = std::move(out);
  }
  template <typename T, typename F>
  void Records(std::vector<T>& records, F&& fields) {
    uint64_t n = 0;
    Value(n);
    // Every record takes at least one byte, which bounds the loop.
    if (ok() && n > Remaining()) Fail("record count overruns the section");
    for (uint64_t i = 0; i < n && ok(); ++i) {
      records.emplace_back();
      fields(records.back());
    }
  }

  void Meta(Graph& g);
  void Static(Graph& g);
  void Dict(columnar::Dictionary& dict);
  void FrozenStrings(columnar::StringColumn& col);
  template <typename T>
  void List(columnar::ListColumn<T>& col);
  void Relation(AdjacencyList& a, const Graph::NamedRelation& r);
  void Index(MessageDateIndex& idx);

  /// Rows of a table, read from the meta and static sections.
  size_t TableRows(Graph::Table t) const {
    switch (t) {
      case Graph::Table::kPerson: return persons_;
      case Graph::Table::kForum: return forums_;
      case Graph::Table::kPost: return posts_;
      case Graph::Table::kComment: return comments_;
      case Graph::Table::kMessage: return posts_ + comments_;
      case Graph::Table::kTag: return tags_;
      case Graph::Table::kPlace: return places_;
    }
    return 0;
  }
  bool ValidMessageRef(uint64_t ref) const {
    if (ref > UINT32_MAX) return false;
    return (ref & kCommentBit) == 0 ? ref < posts_
                                    : (ref & ~kCommentBit) < comments_;
  }

  /// Records the first failure as Corruption, naming the section.
  void Fail(const std::string& why) {
    if (!ok()) return;
    std::string where = "checkpoint image";
    if (section_ != 0) where += " section " + std::to_string(section_);
    status_ = util::Status::Corruption(where + ": " + why);
  }

 private:
  size_t Remaining() const { return len_ - pos_; }
  void Take(void* out, size_t n) {
    if (!ok() || n == 0) return;  // an empty array's data() may be null
    if (n > Remaining()) {
      Fail("field overruns the section");
      return;
    }
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
  }
  bool ReadExact(void* data, size_t n) {
    const ssize_t got = ReadUpTo(fd_, data, n);
    if (got < 0) {
      status_ = util::Status::IoError(std::string("image read failed: ") +
                                      std::strerror(errno));
      return false;
    }
    offset_ += static_cast<uint64_t>(got);
    return static_cast<size_t>(got) == n;
  }
  void Rows(columnar::StringColumn::Rows& rows);
  void Column(columnar::ZonedColumn& col, columnar::BlockEncoding encoding);

  friend struct ImageCodec;

  int fd_;
  uint64_t file_size_;
  uint64_t offset_ = 0;
  uint32_t section_ = 0;
  std::vector<uint8_t> buf_;  // grown to the largest section, reused
  size_t len_ = 0;            // the current section's payload bytes
  size_t pos_ = 0;            // parse position within them
  util::Status status_;

  // Table sizes from the meta and static sections.
  size_t persons_ = 0, forums_ = 0, posts_ = 0, comments_ = 0;
  size_t places_ = 0, tags_ = 0;
};

void ImageCodec::Reader::Meta(Graph& g) {
  uint64_t persons = 0, forums = 0, posts = 0, comments = 0;
  Value(g.compaction_epoch_);
  Value(persons);
  Value(forums);
  Value(posts);
  Value(comments);
  if (!ok()) return;
  // Rows are uint32 indices, and message references spend bit 31 on the
  // family, so each table stays below 2^31 rows.
  for (uint64_t n : {persons, forums, posts, comments}) {
    if (n >= kCommentBit) {
      Fail("table of " + std::to_string(n) + " rows");
      return;
    }
  }
  persons_ = persons;
  forums_ = forums;
  posts_ = posts;
  comments_ = comments;
}

void ImageCodec::Reader::Static(Graph& g) {
  core::SocialNetwork net;
  StaticRecords(*this, net);
  if (!ok()) return;
  // What StaticSegment's build relies on: unique ids per table, known
  // enum values, and every parent, tag-class and part-of reference naming
  // a row (a tag's class is mandatory).
  columnar::FlatIdTable places, organisations, classes, tags;
  auto unique = [this](columnar::FlatIdTable& table, const auto& records,
                       const char* what) {
    table.Reserve(records.size());
    for (size_t i = 0; i < records.size() && ok(); ++i) {
      if (!table.Insert(records[i].id, static_cast<uint32_t>(i))) {
        Fail(std::string("duplicate ") + what + " id " +
             std::to_string(records[i].id));
      }
    }
  };
  unique(places, net.places, "place");
  unique(organisations, net.organisations, "organisation");
  unique(classes, net.tag_classes, "tag class");
  unique(tags, net.tags, "tag");
  if (!ok()) return;
  auto known = [](const columnar::FlatIdTable& table, core::Id id,
                  bool optional) {
    return (optional && id == core::kNoId) ||
           table.Find(id) != columnar::FlatIdTable::kNoRow;
  };
  for (const core::Place& p : net.places) {
    if (static_cast<uint8_t>(p.type) > 2 || !known(places, p.part_of, true)) {
      Fail("place " + std::to_string(p.id) + ": bad type or part-of");
      return;
    }
  }
  for (const core::Organisation& o : net.organisations) {
    if (static_cast<uint8_t>(o.type) > 1) {
      Fail("organisation " + std::to_string(o.id) + ": bad type");
      return;
    }
  }
  for (const core::TagClass& tc : net.tag_classes) {
    if (!known(classes, tc.parent, true)) {
      Fail("tag class " + std::to_string(tc.id) + ": unknown parent");
      return;
    }
  }
  for (const core::Tag& t : net.tags) {
    if (!known(classes, t.tag_class, false)) {
      Fail("tag " + std::to_string(t.id) + ": unknown tag class");
      return;
    }
  }
  places_ = net.places.size();
  tags_ = net.tags.size();
  g.static_ = std::make_shared<const Graph::StaticSegment>(net);
}

void ImageCodec::Reader::Dict(columnar::Dictionary& dict) {
  uint64_t n = 0;
  Value(n);
  if (ok() && (n == 0 || n > Remaining())) {
    Fail("dictionary of " + std::to_string(n) + " strings");
    return;
  }
  // The graph's own dictionary already holds code 0, "female".
  std::string value;
  for (uint64_t code = 0; code < n && ok(); ++code) {
    Str(value);
    if (ok() && dict.GetOrAdd(value) != code) {
      Fail("dictionary string " + std::to_string(code) +
           " repeats an earlier one or displaces \"female\"");
    }
  }
}

void ImageCodec::Reader::Rows(columnar::StringColumn::Rows& rows) {
  Array(rows.offsets);
  Str(rows.chars);
  if (!ok()) return;
  const std::vector<uint64_t>& off = rows.offsets;
  if (off.empty() || off.front() != 0 || off.back() != rows.chars.size() ||
      !std::is_sorted(off.begin(), off.end())) {
    Fail("string column offsets do not partition its bytes");
  }
}

void ImageCodec::Reader::FrozenStrings(columnar::StringColumn& col) {
  columnar::StringColumn::Rows rows;
  Rows(rows);
  if (!ok()) return;
  col.base_rows_ = rows.size();
  col.base_ = std::make_shared<const columnar::StringColumn::Rows>(
      std::move(rows));
}

template <typename T>
void ImageCodec::Reader::List(columnar::ListColumn<T>& col) {
  Array(col.offsets_);
  size_t values = 0;
  if constexpr (std::is_same_v<T, std::string>) {
    Rows(col.values_.tail_);
    if (ok()) values = col.values_.tail_.size();
  } else {
    std::vector<core::Id> ids;
    std::vector<int32_t> years;
    Array(ids);
    Array(years);
    if (ok() && ids.size() != years.size()) {
      Fail("list item fields disagree in length");
    }
    if (!ok()) return;
    col.values_.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) col.values_[i] = {ids[i], years[i]};
    values = ids.size();
  }
  if (!ok()) return;
  const std::vector<uint32_t>& off = col.offsets_;
  if (off.empty() || off.front() != 0 || off.back() != values ||
      !std::is_sorted(off.begin(), off.end())) {
    Fail("list column offsets do not partition its items");
  }
}

void ImageCodec::Reader::Column(columnar::ZonedColumn& col,
                                columnar::BlockEncoding encoding) {
  constexpr size_t kBlock = columnar::ColumnBlock::kMaxValues;
  uint64_t size = 0, blocks = 0;
  Value(size);
  Value(blocks);
  if (!ok()) return;
  // Every serialized block is at least its 40-byte header.
  if (blocks > Remaining() / 40 || blocks != (size + kBlock - 1) / kBlock) {
    Fail("column of " + std::to_string(size) + " values in " +
         std::to_string(blocks) + " blocks");
    return;
  }
  col.blocks_.resize(blocks);
  for (uint64_t b = 0; b < blocks; ++b) {
    size_t consumed = 0;
    util::Status st = columnar::DecodeColumnBlock(
        {buf_.data() + pos_, Remaining()}, &col.blocks_[b], &consumed);
    if (!st.ok()) {
      Fail(st.message());
      return;
    }
    pos_ += consumed;
    const size_t want = b + 1 < blocks ? kBlock : size - b * kBlock;
    if (col.blocks_[b].size() != want ||
        col.blocks_[b].encoding() != encoding) {
      Fail("column block " + std::to_string(b) +
           " has the wrong length or encoding");
      return;
    }
  }
  col.size_ = size;
}

void ImageCodec::Reader::Relation(AdjacencyList& a,
                                  const Graph::NamedRelation& r) {
  uint64_t nodes = 0, edges = 0;
  uint8_t dated = 0;
  Value(nodes);
  Value(dated);
  Value(edges);
  auto csr = std::make_shared<columnar::CompressedCsr>();
  constexpr auto kFor = columnar::BlockEncoding::kForPacked;
  Column(csr->offsets_, kFor);
  Column(csr->targets_, kFor);
  Column(csr->dates_, kFor);
  if (!ok()) return;
  if (nodes != TableRows(r.source) || dated != (r.dated ? 1 : 0) ||
      csr->offsets_.size() != nodes + 1 || csr->targets_.size() != edges ||
      csr->dates_.size() != (r.dated ? edges : 0)) {
    Fail(std::string(r.name) + ": shape disagrees with its tables");
    return;
  }
  // Offsets: from 0, non-decreasing, ending at the edge count.
  std::vector<uint64_t> values;
  uint64_t prev = 0;
  for (size_t b = 0; b < csr->offsets_.num_blocks(); ++b) {
    values.clear();
    csr->offsets_.block(b).DecodeAll(&values);
    for (uint64_t v : values) {
      if (v < prev) {
        Fail(std::string(r.name) + ": offsets decrease");
        return;
      }
      prev = v;
    }
  }
  if (csr->offsets_.At(0) != 0 || prev != edges) {
    Fail(std::string(r.name) + ": offsets do not span the edges");
    return;
  }
  // Targets inside their table: the exact block zones bound most blocks;
  // message references, split by the comment bit, are checked one by one
  // where a zone straddles the two families.
  const uint64_t domain = TableRows(r.target);
  for (size_t b = 0; b < csr->targets_.num_blocks(); ++b) {
    const columnar::ColumnBlock& block = csr->targets_.block(b);
    if (r.target != Graph::Table::kMessage) {
      if (block.zone_max() >= domain) {
        Fail(std::string(r.name) + ": target out of range");
        return;
      }
      continue;
    }
    if (ValidMessageRef(block.zone_min()) &&
        ValidMessageRef(block.zone_max()) &&
        (block.zone_min() & kCommentBit) == (block.zone_max() & kCommentBit)) {
      continue;
    }
    values.clear();
    block.DecodeAll(&values);
    for (uint64_t v : values) {
      if (!ValidMessageRef(v)) {
        Fail(std::string(r.name) + ": invalid message reference");
        return;
      }
    }
  }
  csr->num_nodes_ = nodes;
  csr->num_edges_ = edges;
  csr->with_dates_ = r.dated;
  a.csr_ = std::move(csr);
  a.num_nodes_ = nodes;
  a.with_dates_ = r.dated;
}

void ImageCodec::Reader::Index(MessageDateIndex& idx) {
  auto base = std::make_shared<MessageDateIndex::Base>();
  Array(base->refs);
  Column(base->dates, columnar::BlockEncoding::kDeltaPacked);
  Array(idx.base_like_max_);
  if (!ok()) return;
  if (base->refs.size() != posts_ + comments_ ||
      base->dates.size() != base->refs.size() ||
      idx.base_like_max_.size() != base->dates.num_blocks()) {
    Fail("message index shape disagrees with the message tables");
    return;
  }
  for (uint32_t ref : base->refs) {
    if (!ValidMessageRef(ref)) {
      Fail("message index holds an invalid message reference");
      return;
    }
  }
  idx.base_ = std::move(base);
}

util::Status ImageCodec::Finish(const Reader& r, Graph& g) {
  const size_t persons = r.persons_, forums = r.forums_, posts = r.posts_,
               comments = r.comments_;
  const size_t places = r.places_, dict = g.dict_.size();
  auto fail = [](const std::string& why) {
    return util::Status::Corruption("checkpoint image: " + why);
  };
  auto all_below = [](const std::vector<uint32_t>& column, size_t bound,
                      bool or_none = false) {
    for (uint32_t v : column) {
      if (v >= bound && !(or_none && v == kNoIdx)) return false;
    }
    return true;
  };
  auto sized = [](size_t want, const auto&... columns) {
    return ((columns.size() == want) && ...);
  };
  auto rows = [](const auto& column) { return column.offsets_.size() - 1; };

  if (!sized(persons, g.person_id_, g.person_birthday_, g.person_creation_,
             g.person_city_, g.person_country_, g.person_gender_code_,
             g.person_browser_code_, g.person_msg_date_min_,
             g.person_msg_date_max_) ||
      g.person_first_name_.base_rows_ != persons ||
      g.person_last_name_.base_rows_ != persons ||
      g.person_location_ip_.base_rows_ != persons ||
      rows(g.person_emails_) != persons || rows(g.person_speaks_) != persons ||
      rows(g.person_study_at_) != persons ||
      rows(g.person_work_at_) != persons) {
    return fail("person columns disagree in length");
  }
  if (!all_below(g.person_city_, places) ||
      !all_below(g.person_country_, places) ||
      !all_below(g.person_gender_code_, dict) ||
      !all_below(g.person_browser_code_, dict)) {
    return fail("person column out of range");
  }

  if (!sized(forums, g.forum_id_, g.forum_creation_, g.forum_moderator_,
             g.forum_kind_) ||
      g.forum_title_.base_rows_ != forums) {
    return fail("forum columns disagree in length");
  }
  if (!all_below(g.forum_moderator_, persons) ||
      std::any_of(g.forum_kind_.begin(), g.forum_kind_.end(),
                  [](core::ForumKind k) {
                    return static_cast<uint8_t>(k) > 2;
                  })) {
    return fail("forum column out of range");
  }

  if (!sized(posts, g.post_id_, g.post_length_, g.post_creation_,
             g.post_creator_, g.post_forum_, g.post_country_,
             g.post_browser_code_, g.post_language_code_,
             g.post_like_count_) ||
      g.post_content_.base_rows_ != posts ||
      g.post_image_file_.base_rows_ != posts ||
      g.post_location_ip_.base_rows_ != posts) {
    return fail("post columns disagree in length");
  }
  if (!all_below(g.post_creator_, persons) ||
      !all_below(g.post_forum_, forums) ||
      !all_below(g.post_country_, places, /*or_none=*/true) ||
      !all_below(g.post_browser_code_, dict) ||
      !all_below(g.post_language_code_, dict)) {
    return fail("post column out of range");
  }

  if (!sized(comments, g.comment_id_, g.comment_length_, g.comment_creation_,
             g.comment_creator_, g.comment_country_, g.comment_reply_of_,
             g.comment_root_post_, g.comment_forum_, g.comment_browser_code_,
             g.comment_root_language_code_, g.comment_like_count_) ||
      g.comment_content_.base_rows_ != comments ||
      g.comment_location_ip_.base_rows_ != comments) {
    return fail("comment columns disagree in length");
  }
  if (!all_below(g.comment_creator_, persons) ||
      !all_below(g.comment_country_, places, /*or_none=*/true) ||
      !all_below(g.comment_root_post_, posts) ||
      !all_below(g.comment_forum_, forums) ||
      !all_below(g.comment_browser_code_, dict) ||
      !all_below(g.comment_root_language_code_, dict)) {
    return fail("comment column out of range");
  }
  // A reply targets a post or an earlier comment, as the build orders
  // them: reply chains end at a post, so walking one terminates.
  for (size_t i = 0; i < comments; ++i) {
    const uint32_t parent = g.comment_reply_of_[i];
    if (!r.ValidMessageRef(parent) ||
        (!Graph::IsPost(parent) && Graph::AsComment(parent) >= i)) {
      return fail("comment " + std::to_string(i) + " replies to no message");
    }
  }

  auto index = [](columnar::FlatIdTable& table,
                  const std::vector<core::Id>& ids) {
    table.Reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!table.Insert(ids[i], static_cast<uint32_t>(i))) return false;
    }
    return true;
  };
  if (!index(g.person_idx_, g.person_id_) ||
      !index(g.forum_idx_, g.forum_id_) || !index(g.post_idx_, g.post_id_) ||
      !index(g.comment_idx_, g.comment_id_)) {
    return fail("duplicate entity id");
  }
  for (size_t i = 0; i < persons; ++i) g.person_dead_.Append();
  for (size_t i = 0; i < forums; ++i) g.forum_dead_.Append();
  for (size_t i = 0; i < posts; ++i) g.post_dead_.Append();
  for (size_t i = 0; i < comments; ++i) g.comment_dead_.Append();
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

namespace {

util::Status WriteFrozen(const Graph& graph, const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::Status::IoError("cannot create image " + path + ": " +
                                 std::strerror(errno));
  }
  FdCloser closer{fd};
  ImageCodec::Writer writer(fd, path);
  SNB_RETURN_IF_ERROR(writer.Header());
  ImageCodec::Layout(writer, graph);
  SNB_RETURN_IF_ERROR(writer.status());
  if (::fsync(fd) != 0) {
    return util::Status::IoError("image fsync failed for " + path);
  }
  closer.fd = -1;
  if (::close(fd) != 0) {
    return util::Status::IoError("image close failed for " + path);
  }
  return util::Status::Ok();
}

}  // namespace

util::Status WriteGraphImage(const Graph& graph, const std::string& path) {
  if (ImageCodec::Frozen(graph)) return WriteFrozen(graph, path);
  // Compact first: the image holds only what a build produces.
  return WriteFrozen(*graph.Compact(), path);
}

util::Status DecodeGraphImage(const std::string& path,
                              std::unique_ptr<Graph>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return util::Status::IoError("cannot open image " + path + ": " +
                                 std::strerror(errno));
  }
  FdCloser closer{fd};
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return util::Status::IoError("cannot stat image " + path);
  }
  ImageCodec::Reader reader(fd, static_cast<uint64_t>(st.st_size));
  SNB_RETURN_IF_ERROR(reader.Header());
  std::unique_ptr<Graph> graph = ImageCodec::EmptyGraph();
  ImageCodec::Layout(reader, *graph);
  SNB_RETURN_IF_ERROR(reader.End());
  SNB_RETURN_IF_ERROR(ImageCodec::Finish(reader, *graph));
  *out = std::move(graph);
  return util::Status::Ok();
}

}  // namespace snb::storage
