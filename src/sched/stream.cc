#include "sched/stream.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "bi/bi.h"
#include "engine/morsel.h"
#include "util/check.h"
#include "util/rng.h"

namespace snb::sched {

namespace {

/// Order-sensitive FNV-1a over the fields of the result rows. The digest is
/// a pure function of the typed result, so two executions returning equal
/// row vectors produce equal digests.
class Hasher {
 public:
  void Add(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int32_t v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(uint32_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(bool v) { Add(static_cast<uint64_t>(v)); }
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  template <typename A, typename B>
  void Add(const std::pair<A, B>& p) {
    Add(p.first);
    Add(p.second);
  }
  template <typename T>
  void Add(const std::vector<T>& v) {
    Add(static_cast<uint64_t>(v.size()));
    for (const T& x : v) Add(x);
  }

  uint64_t digest() const { return h_; }

 private:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }

  uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

template <typename... Fields>
void AddFields(Hasher& h, const Fields&... fields) {
  (h.Add(fields), ...);
}

/// Runs one query, folding the rows into (count, fingerprint).
template <typename Bindings, typename RunFn, typename FieldsFn>
OpOutcome RunAndHash(const storage::Graph& graph, const Bindings& bindings,
                     size_t binding, RunFn&& run, FieldsFn&& fields) {
  SNB_CHECK(binding < bindings.size());
  OpOutcome out;
  auto rows = run(graph, bindings[binding]);
  Hasher hasher;
  for (const auto& row : rows) fields(hasher, row);
  out.rows = rows.size();
  out.fingerprint = hasher.digest();
  return out;
}

}  // namespace

std::string StreamOpName(const StreamOp& op) {
  return "BI " + std::to_string(op.query);
}

size_t BindingCount(const params::WorkloadParameters& params, int query) {
  switch (query) {
    case 1: return params.bi1.size();
    case 2: return params.bi2.size();
    case 3: return params.bi3.size();
    case 4: return params.bi4.size();
    case 5: return params.bi5.size();
    case 6: return params.bi6.size();
    case 7: return params.bi7.size();
    case 8: return params.bi8.size();
    case 9: return params.bi9.size();
    case 10: return params.bi10.size();
    case 11: return params.bi11.size();
    case 12: return params.bi12.size();
    case 13: return params.bi13.size();
    case 14: return params.bi14.size();
    case 15: return params.bi15.size();
    case 16: return params.bi16.size();
    case 17: return params.bi17.size();
    case 18: return params.bi18.size();
    case 19: return params.bi19.size();
    case 20: return params.bi20.size();
    case 21: return params.bi21.size();
    case 22: return params.bi22.size();
    case 23: return params.bi23.size();
    case 24: return params.bi24.size();
    case 25: return params.bi25.size();
    default: SNB_UNREACHABLE();
  }
}

OpOutcome ExecuteStreamOp(const storage::Graph& graph,
                          const params::WorkloadParameters& params,
                          const StreamOp& op, const bi::CancelToken* token,
                          util::ThreadPool* intra_pool,
                          const engine::DispatchModel* dispatch) {
  bi::ScopedCancelToken scoped(token);
  bool considered = false;
  engine::DispatchDecision decision;
  // Intra-query dispatch: run(g, b) calls the template's one kernel with
  // the intra-query pool iff one was supplied and the cost model predicts
  // its scan gains from fan-out; otherwise with no pool (one slot, inline).
  // `estimate(g, b)` prices the scan from zone-map candidate counts
  // (already maintained by the index, so pricing is ~free); `morsel_size`
  // is the kernel's actual morsel size, which the model reads as
  // per-element weight. Results are bit-identical either way.
  auto with_pool = [&](auto estimate, size_t morsel_size, auto kernel) {
    return [&, estimate, morsel_size, kernel](const storage::Graph& g,
                                              const auto& b) {
      util::ThreadPool* pool = nullptr;
      if (intra_pool != nullptr && dispatch != nullptr) {
        considered = true;
        decision = dispatch->Decide(op.query, estimate(g, b), morsel_size);
        if (decision.choice == engine::DispatchChoice::kMorsel) {
          pool = intra_pool;
        }
      }
      return kernel(g, b, pool);
    };
  };
  // Scan-size estimators for the partitioned kernels.
  auto all_messages = [](const storage::Graph& g, const auto&) {
    return g.NumMessages();
  };
  OpOutcome out;
  try {
    // Entry poll: a query admitted past its deadline is abandoned before any
    // work, even if its implementation never polls.
    bi::PollCancel();
    switch (op.query) {
      case 1:
        out = RunAndHash(graph, params.bi1, op.binding,
                         with_pool(
                             [](const storage::Graph& g,
                                const bi::Bi1Params& b) {
                               return g.MessageIndex().CandidatesInRange(
                                   storage::kMinMessageDate,
                                   core::DateTimeFromDate(b.date));
                             },
                             engine::kDefaultMorselSize, bi::RunBi1),
                         [](Hasher& h, const bi::Bi1Row& r) {
                           AddFields(h, r.year, r.is_comment,
                                     r.length_category, r.message_count,
                                     r.average_message_length,
                                     r.sum_message_length,
                                     r.percentage_of_messages);
                         });
        break;
      case 2:
        out = RunAndHash(graph, params.bi2, op.binding,
                         with_pool(
                             [](const storage::Graph& g,
                                const bi::Bi2Params& b) {
                               size_t n = 0;
                               uint32_t c1 = g.PlaceByName(b.country1);
                               uint32_t c2 = g.PlaceByName(b.country2);
                               if (c1 != storage::kNoIdx) {
                                 n += g.CountryPersons().Degree(c1);
                               }
                               if (c2 != storage::kNoIdx && c2 != c1) {
                                 n += g.CountryPersons().Degree(c2);
                               }
                               return n;
                             },
                             /*morsel_size=*/256, bi::RunBi2),
                         [](Hasher& h, const bi::Bi2Row& r) {
                           AddFields(h, r.country, r.month, r.gender,
                                     r.age_group, r.tag, r.message_count);
                         });
        break;
      case 3:
        out = RunAndHash(graph, params.bi3, op.binding,
                         with_pool(
                             [](const storage::Graph& g,
                                const bi::Bi3Params& b) {
                               int32_t y = b.year, m = b.month + 2;
                               while (m > 12) {
                                 m -= 12;
                                 ++y;
                               }
                               return g.MessageIndex().CandidatesInRange(
                                   core::DateTimeFromCivil(b.year, b.month, 1),
                                   core::DateTimeFromCivil(y, m, 1));
                             },
                             engine::kDefaultMorselSize, bi::RunBi3),
                         [](Hasher& h, const bi::Bi3Row& r) {
                           AddFields(h, r.tag, r.count_month1, r.count_month2,
                                     r.diff);
                         });
        break;
      case 4:
        out = RunAndHash(graph, params.bi4, op.binding, bi::RunBi4,
                         [](Hasher& h, const bi::Bi4Row& r) {
                           AddFields(h, r.forum_id, r.forum_title,
                                     r.forum_creation_date, r.moderator_id,
                                     r.post_count);
                         });
        break;
      case 5:
        out = RunAndHash(graph, params.bi5, op.binding, bi::RunBi5,
                         [](Hasher& h, const bi::Bi5Row& r) {
                           AddFields(h, r.person_id, r.first_name, r.last_name,
                                     r.creation_date, r.post_count);
                         });
        break;
      case 6:
        out = RunAndHash(graph, params.bi6, op.binding,
                         with_pool(
                             [](const storage::Graph& g,
                                const bi::Bi6Params& b) -> size_t {
                               uint32_t tag = g.TagByName(b.tag);
                               if (tag == storage::kNoIdx) return 0;
                               return g.TagPosts().Degree(tag) +
                                      g.TagComments().Degree(tag);
                             },
                             bi::kPostingMorselSize, bi::RunBi6),
                         [](Hasher& h, const bi::Bi6Row& r) {
                           AddFields(h, r.person_id, r.reply_count,
                                     r.like_count, r.message_count, r.score);
                         });
        break;
      case 7:
        out = RunAndHash(graph, params.bi7, op.binding, bi::RunBi7,
                         [](Hasher& h, const bi::Bi7Row& r) {
                           AddFields(h, r.person_id, r.authority_score);
                         });
        break;
      case 8:
        out = RunAndHash(graph, params.bi8, op.binding, bi::RunBi8,
                         [](Hasher& h, const bi::Bi8Row& r) {
                           AddFields(h, r.related_tag, r.count);
                         });
        break;
      case 9:
        out = RunAndHash(graph, params.bi9, op.binding,
                         with_pool(bi::Bi9Work, bi::kPostingMorselSize,
                                   bi::RunBi9),
                         [](Hasher& h, const bi::Bi9Row& r) {
                           AddFields(h, r.forum_id, r.count1, r.count2);
                         });
        break;
      case 10:
        out = RunAndHash(graph, params.bi10, op.binding, bi::RunBi10,
                         [](Hasher& h, const bi::Bi10Row& r) {
                           AddFields(h, r.person_id, r.score, r.friends_score);
                         });
        break;
      case 11:
        out = RunAndHash(graph, params.bi11, op.binding, bi::RunBi11,
                         [](Hasher& h, const bi::Bi11Row& r) {
                           AddFields(h, r.person_id, r.tag, r.like_count,
                                     r.reply_count);
                         });
        break;
      case 12:
        out = RunAndHash(graph, params.bi12, op.binding,
                         with_pool(
                             [](const storage::Graph& g,
                                const bi::Bi12Params& b) {
                               return g.MessageIndex().CandidatesInRange(
                                   core::DateTimeFromDate(b.date) +
                                       core::kMillisPerDay,
                                   storage::kMaxMessageDate);
                             },
                             engine::kDefaultMorselSize, bi::RunBi12),
                         [](Hasher& h, const bi::Bi12Row& r) {
                           AddFields(h, r.message_id, r.creation_date,
                                     r.creator_first_name,
                                     r.creator_last_name, r.like_count);
                         });
        break;
      case 13:
        out = RunAndHash(graph, params.bi13, op.binding,
                         with_pool(all_messages, engine::kDefaultMorselSize,
                                   bi::RunBi13),
                         [](Hasher& h, const bi::Bi13Row& r) {
                           AddFields(h, r.year, r.month, r.popular_tags);
                         });
        break;
      case 14:
        out = RunAndHash(graph, params.bi14, op.binding,
                         with_pool(
                             [](const storage::Graph& g,
                                const bi::Bi14Params& b) {
                               return g.MessageIndex().CandidatesInRange(
                                   core::DateTimeFromDate(b.begin),
                                   core::DateTimeFromDate(b.end) +
                                       core::kMillisPerDay);
                             },
                             engine::kDefaultMorselSize, bi::RunBi14),
                         [](Hasher& h, const bi::Bi14Row& r) {
                           AddFields(h, r.person_id, r.first_name, r.last_name,
                                     r.thread_count, r.message_count);
                         });
        break;
      case 15:
        out = RunAndHash(graph, params.bi15, op.binding, bi::RunBi15,
                         [](Hasher& h, const bi::Bi15Row& r) {
                           AddFields(h, r.person_id, r.count);
                         });
        break;
      case 16:
        out = RunAndHash(graph, params.bi16, op.binding, bi::RunBi16,
                         [](Hasher& h, const bi::Bi16Row& r) {
                           AddFields(h, r.person_id, r.tag, r.message_count);
                         });
        break;
      case 17:
        out = RunAndHash(graph, params.bi17, op.binding,
                         with_pool(
                             [](const storage::Graph& g,
                                const bi::Bi17Params&) {
                               return g.NumPersons();
                             },
                             /*morsel_size=*/256, bi::RunBi17),
                         [](Hasher& h, const bi::Bi17Row& r) {
                           AddFields(h, r.count);
                         });
        break;
      case 18:
        out = RunAndHash(graph, params.bi18, op.binding, bi::RunBi18,
                         [](Hasher& h, const bi::Bi18Row& r) {
                           AddFields(h, r.message_count, r.person_count);
                         });
        break;
      case 19:
        out = RunAndHash(graph, params.bi19, op.binding, bi::RunBi19,
                         [](Hasher& h, const bi::Bi19Row& r) {
                           AddFields(h, r.person_id, r.stranger_count,
                                     r.interaction_count);
                         });
        break;
      case 20:
        out = RunAndHash(graph, params.bi20, op.binding,
                         with_pool(bi::Bi20Work, bi::kPostingMorselSize,
                                   bi::RunBi20),
                         [](Hasher& h, const bi::Bi20Row& r) {
                           AddFields(h, r.tag_class, r.message_count);
                         });
        break;
      case 21:
        out = RunAndHash(graph, params.bi21, op.binding, bi::RunBi21,
                         [](Hasher& h, const bi::Bi21Row& r) {
                           AddFields(h, r.zombie_id, r.zombie_like_count,
                                     r.total_like_count, r.zombie_score);
                         });
        break;
      case 22:
        out = RunAndHash(graph, params.bi22, op.binding, bi::RunBi22,
                         [](Hasher& h, const bi::Bi22Row& r) {
                           AddFields(h, r.person1_id, r.person2_id, r.city1,
                                     r.score);
                         });
        break;
      case 23:
        out = RunAndHash(graph, params.bi23, op.binding,
                         with_pool(all_messages, engine::kDefaultMorselSize,
                                   bi::RunBi23),
                         [](Hasher& h, const bi::Bi23Row& r) {
                           AddFields(h, r.message_count, r.destination,
                                     r.month);
                         });
        break;
      case 24:
        out = RunAndHash(graph, params.bi24, op.binding,
                         with_pool(bi::Bi24Work, bi::kPostingMorselSize,
                                   bi::RunBi24),
                         [](Hasher& h, const bi::Bi24Row& r) {
                           AddFields(h, r.message_count, r.like_count, r.year,
                                     r.month, r.continent);
                         });
        break;
      case 25:
        out = RunAndHash(graph, params.bi25, op.binding, bi::RunBi25,
                         [](Hasher& h, const bi::Bi25Row& r) {
                           AddFields(h, r.person_ids, r.weight);
                         });
        break;
      default:
        SNB_UNREACHABLE();
    }
  } catch (const bi::QueryCancelled&) {
    out = OpOutcome{};
    out.cancelled = true;
  }
  out.op = op;
  out.dispatch_considered = considered;
  if (considered) out.dispatch = decision;
  return out;
}

QueryStream::QueryStream(size_t stream_id,
                         const params::WorkloadParameters& params,
                         size_t bindings_per_query, uint64_t seed)
    : stream_id_(stream_id) {
  for (int q = 1; q <= 25; ++q) {
    size_t n = std::min(bindings_per_query, BindingCount(params, q));
    for (size_t b = 0; b < n; ++b) {
      ops_.push_back({q, b});
    }
  }
  // Fisher–Yates keyed on (seed, stream id): every stream gets its own
  // deterministic permutation of the full op set.
  util::Rng rng(seed, uint64_t{0x57ea3}, static_cast<uint64_t>(stream_id));
  for (size_t i = ops_.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(ops_[i - 1], ops_[j]);
  }
}

}  // namespace snb::sched
