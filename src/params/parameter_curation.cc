#include "params/parameter_curation.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <unordered_set>

#include "core/date_time.h"
#include "util/check.h"
#include "util/rng.h"

namespace snb::params {

using storage::Graph;
using storage::kNoIdx;

namespace {

double StdDev(const std::vector<int64_t>& values) {
  if (values.empty()) return 0;
  double mean = 0;
  for (int64_t v : values) mean += static_cast<double>(v);
  mean /= static_cast<double>(values.size());
  double var = 0;
  for (int64_t v : values) {
    double d = static_cast<double>(v) - mean;
    var += d * d;
  }
  return std::sqrt(var / static_cast<double>(values.size()));
}

/// Greedy stage: items whose count lies within `tolerance` of the median,
/// widening the band until `want` items qualify.
template <typename GetCount>
std::vector<uint32_t> SelectNearMedian(const std::vector<uint32_t>& candidates,
                                       GetCount get_count, size_t want,
                                       double tolerance) {
  if (candidates.empty()) return {};
  std::vector<uint32_t> sorted = candidates;
  std::sort(sorted.begin(), sorted.end(), [&](uint32_t a, uint32_t b) {
    int64_t ca = get_count(a);
    int64_t cb = get_count(b);
    return ca != cb ? ca < cb : a < b;
  });
  const double median =
      static_cast<double>(get_count(sorted[sorted.size() / 2]));
  std::vector<uint32_t> selected;
  double band = tolerance;
  while (selected.size() < want && band < 1e6) {
    selected.clear();
    double lo = median * (1.0 - band) - band;
    double hi = median * (1.0 + band) + band;
    for (uint32_t c : sorted) {
      double v = static_cast<double>(get_count(c));
      if (v >= lo && v <= hi) selected.push_back(c);
      if (selected.size() == want) break;
    }
    band *= 2;
  }
  return selected;
}

}  // namespace

CuratedPersons CuratePersons(const Graph& graph,
                             const CurationConfig& config) {
  CuratedPersons out;
  const size_t n = graph.NumPersons();
  if (n == 0) return out;

  // Stage 1: count collection.
  std::vector<PersonCounts> counts(n);
  std::vector<int64_t> population_friends;
  population_friends.reserve(n);
  for (uint32_t p = 0; p < n; ++p) {
    PersonCounts& c = counts[p];
    c.person = p;
    c.friends = static_cast<int64_t>(graph.Knows().Degree(p));
    population_friends.push_back(c.friends);
    std::unordered_set<uint32_t> two_hop;
    graph.Knows().ForEach(p, [&](uint32_t f) {
      c.friend_messages +=
          static_cast<int64_t>(graph.PersonPosts().Degree(f)) +
          static_cast<int64_t>(graph.PersonComments().Degree(f));
      graph.Knows().ForEach(f, [&](uint32_t ff) {
        if (ff != p) two_hop.insert(ff);
      });
    });
    c.two_hop = static_cast<int64_t>(two_hop.size());
  }

  // Stage 2: greedy selection near the median friend-count among persons
  // with at least one friend.
  std::vector<uint32_t> candidates;
  for (uint32_t p = 0; p < n; ++p) {
    if (counts[p].friends > 0) candidates.push_back(p);
  }
  std::vector<uint32_t> selected = SelectNearMedian(
      candidates, [&](uint32_t p) { return counts[p].friends; },
      config.per_query, config.tolerance);

  std::vector<int64_t> selected_friends;
  for (uint32_t p : selected) {
    out.selected.push_back(counts[p]);
    selected_friends.push_back(counts[p].friends);
  }
  out.selected_friend_stddev = StdDev(selected_friends);
  out.population_friend_stddev = StdDev(population_friends);
  return out;
}

WorkloadParameters CurateParameters(const Graph& graph,
                                    const CurationConfig& config) {
  WorkloadParameters out;
  util::Rng rng(config.seed, uint64_t{0x9a7a});
  const size_t k = config.per_query;

  CuratedPersons persons = CuratePersons(graph, config);
  std::vector<core::Id> person_ids;
  for (const PersonCounts& c : persons.selected) {
    person_ids.push_back(graph.PersonId(c.person));
  }
  if (person_ids.empty() && graph.NumPersons() > 0) {
    person_ids.push_back(graph.PersonId(0));
  }
  auto person_at = [&](size_t i) {
    return person_ids[i % person_ids.size()];
  };

  // Curated tags: message count near the nonzero median.
  std::vector<uint32_t> tag_candidates;
  auto tag_count = [&](uint32_t t) {
    return static_cast<int64_t>(graph.TagPosts().Degree(t)) +
           static_cast<int64_t>(graph.TagComments().Degree(t));
  };
  for (uint32_t t = 0; t < graph.NumTags(); ++t) {
    if (tag_count(t) > 0) tag_candidates.push_back(t);
  }
  std::vector<uint32_t> tags =
      SelectNearMedian(tag_candidates, tag_count, k, config.tolerance);
  if (tags.empty() && graph.NumTags() > 0) tags.push_back(0);
  auto tag_at = [&](size_t i) {
    return graph.TagAt(tags[i % tags.size()]).name;
  };

  // Curated countries: population near the nonzero median.
  std::vector<uint32_t> country_candidates;
  auto country_count = [&](uint32_t place) {
    return static_cast<int64_t>(graph.CountryPersons().Degree(place));
  };
  for (uint32_t place = 0; place < graph.NumPlaces(); ++place) {
    if (graph.PlaceAt(place).type == core::PlaceType::kCountry &&
        country_count(place) > 0) {
      country_candidates.push_back(place);
    }
  }
  std::vector<uint32_t> countries = SelectNearMedian(
      country_candidates, country_count, k, config.tolerance);
  SNB_CHECK(!countries.empty());
  auto country_at = [&](size_t i) {
    return graph.PlaceAt(countries[i % countries.size()]).name;
  };

  // Tag classes with at least one tag, rotated.
  std::vector<uint32_t> classes;
  for (uint32_t tc = 0; tc < graph.NumTagClasses(); ++tc) {
    if (graph.TagClassTags().Degree(tc) > 0) classes.push_back(tc);
  }
  SNB_CHECK(!classes.empty());
  auto class_at = [&](size_t i) {
    return graph.TagClassAt(classes[i % classes.size()]).name;
  };

  // Dates inside the simulated period.
  const core::Date sim_start = core::DateFromCivil(config.start_year, 1, 1);
  const core::Date sim_end =
      core::DateFromCivil(config.start_year + config.num_years, 1, 1);
  const core::Date mid = sim_start + (sim_end - sim_start) / 2;
  auto date_at = [&](size_t i) {
    // Spread over the middle half of the simulation for stable selectivity.
    core::Date span = (sim_end - sim_start) / 2;
    return sim_start + span / 2 +
           static_cast<core::Date>((i * 37) % std::max<core::Date>(span, 1));
  };

  // Person pairs at knows-distance ≥ 2 for the path queries.
  std::vector<std::pair<core::Id, core::Id>> pairs;
  for (size_t i = 0; i < k && person_ids.size() >= 2; ++i) {
    core::Id a = person_at(i);
    core::Id b = person_at(i + person_ids.size() / 2);
    if (a == b) b = person_at(i + 1);
    pairs.emplace_back(a, b);
  }
  if (pairs.empty() && !person_ids.empty()) {
    pairs.emplace_back(person_ids[0], person_ids[0]);
  }

  const std::vector<std::string> sample_first_names = {"Chen", "Maria",
                                                       "John", "Mei", "Ali"};
  const std::vector<std::string> sample_languages = {"en", "zh", "es"};

  for (size_t i = 0; i < k; ++i) {
    out.ic1.push_back(
        {person_at(i), sample_first_names[i % sample_first_names.size()]});
    out.ic2.push_back({person_at(i), date_at(i)});
    out.ic3.push_back({person_at(i), country_at(i), country_at(i + 1),
                       date_at(i), 30 + static_cast<int32_t>(i % 3) * 15});
    out.ic4.push_back(
        {person_at(i), date_at(i), 30 + static_cast<int32_t>(i % 3) * 15});
    out.ic5.push_back({person_at(i), date_at(i)});
    out.ic6.push_back({person_at(i), tag_at(i)});
    out.ic7.push_back({person_at(i)});
    out.ic8.push_back({person_at(i)});
    out.ic9.push_back({person_at(i), date_at(i)});
    out.ic10.push_back(
        {person_at(i), static_cast<int32_t>(1 + (i % 12))});
    out.ic11.push_back({person_at(i), country_at(i),
                        config.start_year - static_cast<int32_t>(i % 10)});
    out.ic12.push_back({person_at(i), class_at(i)});
    out.ic13.push_back({pairs[i % pairs.size()].first,
                        pairs[i % pairs.size()].second});
    out.ic14.push_back({pairs[i % pairs.size()].first,
                        pairs[i % pairs.size()].second});

    out.bi1.push_back({date_at(i)});
    out.bi2.push_back({sim_start, date_at(i), country_at(i),
                       country_at(i + 1), sim_end, 0});
    out.bi3.push_back(
        {config.start_year + static_cast<int32_t>(i % config.num_years),
         static_cast<int32_t>(1 + (i % 11))});
    out.bi4.push_back({class_at(i), country_at(i)});
    out.bi5.push_back({country_at(i)});
    out.bi6.push_back({tag_at(i)});
    out.bi7.push_back({tag_at(i)});
    out.bi8.push_back({tag_at(i)});
    out.bi9.push_back({class_at(i), class_at(i + 1),
                       static_cast<int64_t>(1 + i % 5)});
    out.bi10.push_back({tag_at(i), date_at(i)});
    out.bi11.push_back({country_at(i), {"about", "never"}});
    out.bi12.push_back({date_at(i), static_cast<int64_t>(i % 4)});
    out.bi13.push_back({country_at(i)});
    out.bi14.push_back({date_at(i), date_at(i) + 90});
    out.bi15.push_back({country_at(i)});
    out.bi16.push_back({person_at(i), country_at(i), class_at(i), 1,
                        static_cast<int32_t>(2 + i % 2)});
    out.bi17.push_back({country_at(i)});
    out.bi18.push_back({date_at(i), 100 + static_cast<int32_t>(i % 4) * 30,
                        sample_languages});
    out.bi19.push_back({core::DateFromCivil(1970 + static_cast<int32_t>(i % 20),
                                            1, 1),
                        class_at(i), class_at(i + 1)});
    out.bi20.push_back({{class_at(i), class_at(i + 1), class_at(i + 2)}});
    out.bi21.push_back({country_at(i), mid + static_cast<core::Date>(i * 7)});
    out.bi22.push_back({country_at(i), country_at(i + 1)});
    out.bi23.push_back({country_at(i)});
    out.bi24.push_back({class_at(i)});
    out.bi25.push_back({pairs[i % pairs.size()].first,
                        pairs[i % pairs.size()].second, sim_start, sim_end});
  }
  (void)rng;
  return out;
}

namespace {

util::Status WriteParamFile(const std::string& dir, const std::string& name,
                            const std::vector<std::string>& lines) {
  std::FILE* f = std::fopen((dir + "/" + name).c_str(), "w");
  if (f == nullptr) return util::Status::IoError("cannot open " + name);
  for (const std::string& line : lines) {
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  if (std::fclose(f) != 0) return util::Status::IoError("close " + name);
  return util::Status::Ok();
}

std::string J(const std::string& key, const std::string& value, bool str) {
  if (str) return "\"" + key + "\": \"" + value + "\"";
  return "\"" + key + "\": " + value;
}

}  // namespace

util::Status WriteSubstitutionParameters(const WorkloadParameters& params,
                                         const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return util::Status::IoError("cannot create " + dir);

  std::vector<std::string> lines;
  auto flush = [&](const std::string& name) {
    util::Status s = WriteParamFile(dir, name, lines);
    lines.clear();
    return s;
  };
  auto id = [](core::Id v) { return std::to_string(v); };
  auto i32 = [](int64_t v) { return std::to_string(v); };
  auto date = [](core::Date d) { return core::FormatDate(d); };
  auto obj = [](std::initializer_list<std::string> pairs) {
    std::string out = "{";
    bool first = true;
    for (const std::string& p : pairs) {
      if (!first) out += ", ";
      out += p;
      first = false;
    }
    out += "}";
    return out;
  };
  auto strs = [](const std::vector<std::string>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + values[i] + "\"";
    }
    return out + "]";
  };

  // ---- Interactive complex reads (IC 1–14) --------------------------------
  for (const auto& p : params.ic1) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("firstName", p.first_name, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_1_param.txt"));
  for (const auto& p : params.ic2) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("maxDate", date(p.max_date), true)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_2_param.txt"));
  for (const auto& p : params.ic3) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("countryXName", p.country_x, true),
                         J("countryYName", p.country_y, true),
                         J("startDate", date(p.start_date), true),
                         J("durationDays", i32(p.duration_days), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_3_param.txt"));
  for (const auto& p : params.ic4) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("startDate", date(p.start_date), true),
                         J("durationDays", i32(p.duration_days), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_4_param.txt"));
  for (const auto& p : params.ic5) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("minDate", date(p.min_date), true)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_5_param.txt"));
  for (const auto& p : params.ic6) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("tagName", p.tag_name, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_6_param.txt"));
  for (const auto& p : params.ic7) {
    lines.push_back(obj({J("personId", id(p.person_id), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_7_param.txt"));
  for (const auto& p : params.ic8) {
    lines.push_back(obj({J("personId", id(p.person_id), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_8_param.txt"));
  for (const auto& p : params.ic9) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("maxDate", date(p.max_date), true)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_9_param.txt"));
  for (const auto& p : params.ic10) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("month", i32(p.month), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_10_param.txt"));
  for (const auto& p : params.ic11) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("countryName", p.country_name, true),
                         J("workFromYear", i32(p.work_from_year), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_11_param.txt"));
  for (const auto& p : params.ic12) {
    lines.push_back(obj({J("personId", id(p.person_id), false),
                         J("tagClassName", p.tag_class_name, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_12_param.txt"));
  for (const auto& p : params.ic13) {
    lines.push_back(obj({J("person1Id", id(p.person1_id), false),
                         J("person2Id", id(p.person2_id), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_13_param.txt"));
  for (const auto& p : params.ic14) {
    lines.push_back(obj({J("person1Id", id(p.person1_id), false),
                         J("person2Id", id(p.person2_id), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("interactive_14_param.txt"));

  // ---- BI reads (BI 1–25) ---------------------------------------------------
  for (const auto& p : params.bi1) {
    lines.push_back(obj({J("date", date(p.date), true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_1_param.txt"));
  for (const auto& p : params.bi2) {
    lines.push_back(obj({J("startDate", date(p.start_date), true),
                         J("endDate", date(p.end_date), true),
                         J("country1", p.country1, true),
                         J("country2", p.country2, true),
                         J("threshold", i32(p.threshold), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_2_param.txt"));
  for (const auto& p : params.bi3) {
    lines.push_back(obj({J("year", i32(p.year), false),
                         J("month", i32(p.month), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_3_param.txt"));
  for (const auto& p : params.bi4) {
    lines.push_back(obj({J("tagClass", p.tag_class, true),
                         J("country", p.country, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_4_param.txt"));
  for (const auto& p : params.bi5) {
    lines.push_back(obj({J("country", p.country, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_5_param.txt"));
  for (const auto& p : params.bi6) {
    lines.push_back(obj({J("tag", p.tag, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_6_param.txt"));
  for (const auto& p : params.bi7) {
    lines.push_back(obj({J("tag", p.tag, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_7_param.txt"));
  for (const auto& p : params.bi8) {
    lines.push_back(obj({J("tag", p.tag, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_8_param.txt"));
  for (const auto& p : params.bi9) {
    lines.push_back(obj({J("tagClass1", p.tag_class1, true),
                         J("tagClass2", p.tag_class2, true),
                         J("threshold", i32(p.threshold), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_9_param.txt"));
  for (const auto& p : params.bi10) {
    lines.push_back(obj({J("tag", p.tag, true),
                         J("date", date(p.date), true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_10_param.txt"));
  for (const auto& p : params.bi11) {
    lines.push_back(obj({J("country", p.country, true),
                         J("blacklist", strs(p.blacklist), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_11_param.txt"));
  for (const auto& p : params.bi12) {
    lines.push_back(obj({J("date", date(p.date), true),
                         J("likeThreshold", i32(p.like_threshold), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_12_param.txt"));
  for (const auto& p : params.bi13) {
    lines.push_back(obj({J("country", p.country, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_13_param.txt"));
  for (const auto& p : params.bi14) {
    lines.push_back(obj({J("begin", date(p.begin), true),
                         J("end", date(p.end), true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_14_param.txt"));
  for (const auto& p : params.bi15) {
    lines.push_back(obj({J("country", p.country, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_15_param.txt"));
  for (const auto& p : params.bi16) {
    lines.push_back(obj(
        {J("personId", id(p.person_id), false),
         J("country", p.country, true), J("tagClass", p.tag_class, true),
         J("minPathDistance", i32(p.min_path_distance), false),
         J("maxPathDistance", i32(p.max_path_distance), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_16_param.txt"));
  for (const auto& p : params.bi17) {
    lines.push_back(obj({J("country", p.country, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_17_param.txt"));
  for (const auto& p : params.bi18) {
    lines.push_back(obj(
        {J("date", date(p.date), true),
         J("lengthThreshold", i32(p.length_threshold), false),
         J("languages", strs(p.languages), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_18_param.txt"));
  for (const auto& p : params.bi19) {
    lines.push_back(obj({J("date", date(p.date), true),
                         J("tagClass1", p.tag_class1, true),
                         J("tagClass2", p.tag_class2, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_19_param.txt"));
  for (const auto& p : params.bi20) {
    lines.push_back(obj({J("tagClasses", strs(p.tag_classes), false)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_20_param.txt"));
  for (const auto& p : params.bi21) {
    lines.push_back(obj({J("country", p.country, true),
                         J("endDate", date(p.end_date), true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_21_param.txt"));
  for (const auto& p : params.bi22) {
    lines.push_back(obj({J("country1", p.country1, true),
                         J("country2", p.country2, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_22_param.txt"));
  for (const auto& p : params.bi23) {
    lines.push_back(obj({J("country", p.country, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_23_param.txt"));
  for (const auto& p : params.bi24) {
    lines.push_back(obj({J("tagClass", p.tag_class, true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_24_param.txt"));
  for (const auto& p : params.bi25) {
    lines.push_back(obj({J("person1Id", id(p.person1_id), false),
                         J("person2Id", id(p.person2_id), false),
                         J("startDate", date(p.start_date), true),
                         J("endDate", date(p.end_date), true)}));
  }
  SNB_RETURN_IF_ERROR(flush("bi_25_param.txt"));

  return util::Status::Ok();
}

}  // namespace snb::params
