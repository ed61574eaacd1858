#include "datagen/knows_generator.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "util/rng.h"

namespace snb::datagen {

namespace {

constexpr uint64_t kStreamKnows = 301;

/// Similarity keys (the M functions of §2.3.3.2). Low bits carry a hash so
/// that equal-cohort persons land in a deterministic but shuffled order.
uint64_t StudyKey(const PersonDraft& d, uint64_t seed) {
  uint64_t noise = util::Mix64(seed ^ static_cast<uint64_t>(d.record.id)) &
                   0xffff;
  if (d.university_org != SIZE_MAX) {
    uint64_t year = d.record.study_at.empty()
                        ? 0
                        : static_cast<uint64_t>(
                              d.record.study_at[0].class_year & 0x3f);
    return ((static_cast<uint64_t>(d.university_org) << 6 | year) << 16) |
           noise;
  }
  // Persons without a university cluster by home city, in a separate key
  // region above all university cohorts.
  return (uint64_t{1} << 62) |
         ((static_cast<uint64_t>(d.record.city) << 16) | noise);
}

uint64_t InterestKey(const PersonDraft& d, uint64_t seed) {
  uint64_t noise = util::Mix64(seed ^ static_cast<uint64_t>(d.record.id) ^
                               0x1234) &
                   0xffffff;
  return (static_cast<uint64_t>(d.main_interest) << 24) | noise;
}

uint64_t RandomKey(const PersonDraft& d, uint64_t seed) {
  return util::Mix64(seed ^ static_cast<uint64_t>(d.record.id) ^ 0xabcd);
}

struct PassState {
  std::vector<uint32_t> budget;  // remaining edges for the current dimension
  std::vector<std::unordered_set<uint32_t>> neighbours;  // global dedup
};

/// One similarity pass: persons sorted by key (ties by index, the
/// MapReduce shuffle), each drawing partners at most `knows_window` rank
/// positions back.
void RunPass(const DatagenConfig& config, std::vector<PersonDraft>& drafts,
             const std::vector<uint64_t>& keys, uint64_t pass_tag,
             PassState& state) {
  const size_t n = drafts.size();
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&keys](uint32_t a, uint32_t b) {
    return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
  });

  const core::DateTime sim_end = config.SimulationEnd();
  const uint32_t window = std::min<uint32_t>(
      config.knows_window, static_cast<uint32_t>(n > 1 ? n - 1 : 1));
  // Geometric distance distribution with mean ≈ window / 8: most picks are
  // very close in similarity rank, few reach across the window.
  const double geo_p =
      std::min(0.5, 8.0 / static_cast<double>(std::max<uint32_t>(window, 2)));

  for (size_t pos = 1; pos < n; ++pos) {
    const uint32_t i = order[pos];
    if (state.budget[i] == 0) continue;
    util::Rng rng(config.seed, kStreamKnows, pass_tag, i);
    // Bounded attempts: budget may be unfillable when neighbours in the
    // window are saturated.
    uint32_t attempts = 8 * state.budget[i] + 16;
    while (state.budget[i] > 0 && attempts-- > 0) {
      uint64_t dist = 1 + static_cast<uint64_t>(rng.Geometric(geo_p));
      if (dist > pos || dist > window) continue;
      const uint32_t j = order[pos - dist];
      if (state.budget[j] == 0) continue;
      if (state.neighbours[i].contains(j)) continue;

      // Edge creation date: after both persons joined, skewed toward soon
      // after the younger account was created.
      core::DateTime lower = std::max(drafts[i].record.creation_date,
                                      drafts[j].record.creation_date);
      double u = rng.NextDouble();
      core::DateTime when =
          lower + static_cast<core::DateTime>(
                      u * u * static_cast<double>(sim_end - 1 - lower));

      state.neighbours[i].insert(j);
      state.neighbours[j].insert(i);
      drafts[i].friends.push_back(j);
      drafts[i].friend_dates.push_back(when);
      drafts[j].friends.push_back(i);
      drafts[j].friend_dates.push_back(when);
      --state.budget[i];
      --state.budget[j];
    }
  }
}

}  // namespace

void GenerateKnows(const DatagenConfig& config, const Dictionaries& dicts,
                   std::vector<PersonDraft>& drafts) {
  (void)dicts;
  const size_t n = drafts.size();
  PassState state;
  state.neighbours.resize(n);

  // Dimension budget split: 45 % study, 45 % interest, and the remainder —
  // including whatever the correlated passes could not place because their
  // windows saturated — mopped up by the random pass.
  std::vector<uint32_t> budget_study(n), budget_interest(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t total = drafts[i].target_degree;
    budget_study[i] = static_cast<uint32_t>(0.45 * total);
    budget_interest[i] = static_cast<uint32_t>(0.45 * total);
  }

  std::vector<uint64_t> keys(n);
  uint64_t key_seed = util::MixSeed(config.seed, kStreamKnows, uint64_t{1});
  for (size_t i = 0; i < n; ++i) keys[i] = StudyKey(drafts[i], key_seed);
  state.budget = std::move(budget_study);
  RunPass(config, drafts, keys, 1, state);

  key_seed = util::MixSeed(config.seed, kStreamKnows, uint64_t{2});
  for (size_t i = 0; i < n; ++i) keys[i] = InterestKey(drafts[i], key_seed);
  state.budget = std::move(budget_interest);
  RunPass(config, drafts, keys, 2, state);

  key_seed = util::MixSeed(config.seed, kStreamKnows, uint64_t{3});
  for (size_t i = 0; i < n; ++i) keys[i] = RandomKey(drafts[i], key_seed);
  std::vector<uint32_t> budget_random(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t made = static_cast<uint32_t>(drafts[i].friends.size());
    budget_random[i] =
        drafts[i].target_degree > made ? drafts[i].target_degree - made : 0;
  }
  state.budget = std::move(budget_random);
  RunPass(config, drafts, keys, 3, state);
}

}  // namespace snb::datagen
