// Datagen CLI: generates a dataset and serializes all spec artefacts —
// the CsvBasic dataset (Table 2.13), the CsvMergeForeign variant
// (Table 2.14), the update streams (Tables 2.17–2.18) and the substitution
// parameters (§2.3.4.4) — into an output directory, mirroring the
// reference Datagen's social_network/ layout.
//
//   ./datagen_tool <output_dir> [--sf <name> | --persons <n>] [--seed <s>]
//
// A missing, malformed or out-of-range value (--persons below 2) is a
// usage error: exit 2 with the usage text.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>

#include "core/scale_factors.h"
#include "datagen/datagen.h"
#include "datagen/serializer.h"
#include "datagen/statistics.h"
#include "datagen/update_stream.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <output_dir> [--sf <name> | --persons <n>] "
               "[--seed <s>]\n"
               "  --persons n >= 2\n",
               argv0);
  return 2;
}

// Parses all of `text` as a T: false on an empty string, trailing junk, a
// sign on an unsigned type, or overflow.
template <typename T>
bool ParseValue(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && ptr != text;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snb;  // NOLINT

  if (argc < 2 || argv[1][0] == '-') return Usage(argv[0]);
  std::string out_dir = argv[1];
  datagen::DatagenConfig config;
  config.num_persons = 1500;  // SF 0.1 by default
  for (int i = 2; i < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage(argv[0]);  // a flag without a value
    if (std::strcmp(flag, "--sf") == 0) {
      auto sf = core::FindScaleFactor(value);
      if (!sf.has_value()) {
        std::fprintf(stderr, "unknown scale factor %s\n", value);
        return Usage(argv[0]);
      }
      config.num_persons = sf->num_persons;
    } else if (std::strcmp(flag, "--persons") == 0) {
      if (!ParseValue(value, &config.num_persons) || config.num_persons < 2) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseValue(value, &config.seed)) return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return Usage(argv[0]);
    }
  }

  std::printf("Generating %llu persons (seed %llu)...\n",
              static_cast<unsigned long long>(config.num_persons),
              static_cast<unsigned long long>(config.seed));
  datagen::GeneratedData data = datagen::Generate(config);
  datagen::DatasetStatistics stats =
      datagen::ComputeStatistics(data.network);
  std::printf("  nodes %zu, edges %zu, avg knows-degree %.1f\n",
              stats.num_nodes, stats.num_edges, stats.avg_degree);

  std::string social = out_dir + "/social_network";
  struct Serializer {
    const char* name;
    const char* subdir;
    util::Status (*write)(const core::SocialNetwork&, const std::string&);
  };
  const Serializer serializers[] = {
      {"CsvBasic", "/social_network", &datagen::WriteCsvBasic},
      {"CsvMergeForeign", "/social_network_merge",
       &datagen::WriteCsvMergeForeign},
      {"CsvComposite", "/social_network_composite",
       &datagen::WriteCsvComposite},
      {"CsvCompositeMergeForeign", "/social_network_composite_merge",
       &datagen::WriteCsvCompositeMergeForeign},
      {"Turtle", "/social_network_turtle", &datagen::WriteTurtle},
  };
  for (const Serializer& ser : serializers) {
    util::Status status = ser.write(data.network, out_dir + ser.subdir);
    if (!status.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", ser.name,
                   status.ToString().c_str());
      return 1;
    }
  }
  util::Status status = datagen::WriteUpdateStreams(data.updates, social);
  if (!status.ok()) {
    std::fprintf(stderr, "update streams failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // Substitution parameters require the count-collection pass over the
  // built graph (spec §3.3 stage 1).
  storage::Graph graph(std::move(data.network));
  params::CurationConfig pc;
  pc.seed = config.seed;
  params::WorkloadParameters wp = params::CurateParameters(graph, pc);
  status = params::WriteSubstitutionParameters(
      wp, out_dir + "/substitution_parameters");
  if (!status.ok()) {
    std::fprintf(stderr, "substitution parameters failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  std::printf(
      "Wrote:\n"
      "  %s/  (CsvBasic dataset, Table 2.13 + update streams)\n"
      "  %s_merge/  (CsvMergeForeign, Table 2.14)\n"
      "  %s_composite/  (CsvComposite, Table 2.15)\n"
      "  %s_composite_merge/  (CsvCompositeMergeForeign, Table 2.16)\n"
      "  %s_turtle/  (Turtle RDF)\n"
      "  %s/substitution_parameters/  (39 parameter files)\n",
      social.c_str(), social.c_str(), social.c_str(), social.c_str(),
      social.c_str(), out_dir.c_str());
  return 0;
}
