// Graph → raw-network export: the inverse of Graph construction,
// reconstructing a core::SocialNetwork from the store's tables and
// adjacency. With the CSV serializers it writes a graph out as a dataset.
// A rebuild of the export, Graph(ExportNetwork(g), epoch), is the test
// oracle of compaction: Graph::Compact() (compact.cc) builds the same
// graph from g's columns without it.

#ifndef SNB_STORAGE_EXPORT_H_
#define SNB_STORAGE_EXPORT_H_

#include "core/schema.h"
#include "storage/graph.h"

namespace snb::storage {

/// Rebuilds person / forum / post / comment row `i` from the graph's
/// columns and adjacency (interests and tags in adjacency order, the other
/// lists in stored order), whether or not the row is tombstoned.
core::Person ExportPerson(const Graph& graph, uint32_t i);
core::Forum ExportForum(const Graph& graph, uint32_t i);
core::Post ExportPost(const Graph& graph, uint32_t i);
core::Comment ExportComment(const Graph& graph, uint32_t i);

/// Materializes the graph's current state (bulk data plus every applied
/// update) as a raw network. Round-trip property:
/// Graph(ExportNetwork(g)) is observationally equal to g.
core::SocialNetwork ExportNetwork(const Graph& graph);

}  // namespace snb::storage

#endif  // SNB_STORAGE_EXPORT_H_
