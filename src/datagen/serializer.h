// Dataset serializers (spec §2.3.4.2).
//
// CsvBasic: every entity, relation and multi-valued attribute in its own
// file — 33 files, Table 2.13. CsvMergeForeign: 1-to-1 / N-to-1 relations
// merged into entity files as foreign keys — 20 files, Table 2.14.
// Files use '|' separators and land in <dir>/static and <dir>/dynamic; each
// file carries the "_0_0.csv" shard suffix of the reference Datagen.

#ifndef SNB_DATAGEN_SERIALIZER_H_
#define SNB_DATAGEN_SERIALIZER_H_

#include <string>
#include <vector>

#include "core/schema.h"
#include "util/status.h"

namespace snb::datagen {

/// The 33 CsvBasic file stems of Table 2.13 ("person_knows_person", …), in
/// spec order, without directory or shard suffix.
const std::vector<std::string>& CsvBasicFileStems();

/// The 20 CsvMergeForeign file stems of Table 2.14.
const std::vector<std::string>& CsvMergeForeignFileStems();

/// Serializes the network in CsvBasic format under `dir` (creates
/// <dir>/static and <dir>/dynamic).
util::Status WriteCsvBasic(const core::SocialNetwork& net,
                           const std::string& dir);

/// Serializes the network in CsvMergeForeign format under `dir`.
util::Status WriteCsvMergeForeign(const core::SocialNetwork& net,
                                  const std::string& dir);

/// The 31 CsvComposite file stems of Table 2.15 (multi-valued attributes
/// Person.email / Person.speaks become composite columns).
const std::vector<std::string>& CsvCompositeFileStems();

/// The 18 CsvCompositeMergeForeign file stems of Table 2.16.
const std::vector<std::string>& CsvCompositeMergeForeignFileStems();

/// Serializes in CsvComposite format (Table 2.15) under `dir`.
util::Status WriteCsvComposite(const core::SocialNetwork& net,
                               const std::string& dir);

/// Serializes in CsvCompositeMergeForeign format (Table 2.16) under `dir`.
util::Status WriteCsvCompositeMergeForeign(const core::SocialNetwork& net,
                                           const std::string& dir);

/// Serializes in the Turtle RDF format (spec §2.3.4.2): two files,
/// 0_ldbc_socialnet_static_dbp.ttl (static part) and 0_ldbc_socialnet.ttl
/// (dynamic part), under `dir`.
util::Status WriteTurtle(const core::SocialNetwork& net,
                         const std::string& dir);

}  // namespace snb::datagen

#endif  // SNB_DATAGEN_SERIALIZER_H_
