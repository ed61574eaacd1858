#include "driver/driver.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "interactive/interactive.h"
#include "interactive/updates.h"
#include "util/check.h"
#include "util/rng.h"

namespace snb::driver {

using Clock = std::chrono::steady_clock;

namespace {

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

class Recorder {
 public:
  explicit Recorder(DriverReport& report) : report_(report) {}

  template <typename Fn>
  size_t Run(const std::string& op, double scheduled_ms,
             Clock::time_point t0, Fn&& fn) {
    double actual_ms = MsSince(t0);
    size_t rows = fn();
    double end_ms = MsSince(t0);
    double latency = end_ms - actual_ms;
    report_.per_operation[op].Record(latency);
    ++report_.total_operations;
    report_.results_log.push_back(
        {op, scheduled_ms, actual_ms, latency, rows});
    if (actual_ms - scheduled_ms >= 1000.0) ++late_;
    return rows;
  }

  size_t late() const { return late_; }

 private:
  DriverReport& report_;
  size_t late_ = 0;
};

}  // namespace

DriverReport RunInteractiveWorkload(
    storage::Graph& graph, const std::vector<datagen::UpdateEvent>& updates,
    const params::WorkloadParameters& params, const DriverConfig& config) {
  DriverReport report;
  Recorder recorder(report);
  util::Rng rng(config.seed, uint64_t{0xd417e});

  const core::InteractiveFrequencies freq =
      core::FrequenciesForScaleFactor(config.sf_name);

  // Cursors into the parameter lists, advanced round-robin.
  size_t cursor[14] = {0};
  // Update countdowns per complex-read type.
  int32_t countdown[14];
  for (int i = 0; i < 14; ++i) countdown[i] = freq.freq[i];

  // Short-read substitution state, fed from complex-read results.
  std::vector<core::Id> recent_persons;
  std::vector<std::pair<core::Id, bool>> recent_messages;  // (id, is_post)
  auto remember_person = [&](core::Id id) {
    recent_persons.push_back(id);
    if (recent_persons.size() > 64) {
      recent_persons.erase(recent_persons.begin());
    }
  };
  auto remember_message = [&](core::Id id, bool is_post) {
    recent_messages.emplace_back(id, is_post);
    if (recent_messages.size() > 64) {
      recent_messages.erase(recent_messages.begin());
    }
  };

  const Clock::time_point t0 = Clock::now();
  const core::DateTime sim_t0 =
      updates.empty() ? 0 : updates.front().timestamp;
  auto scheduled_ms_of = [&](core::DateTime sim_t) {
    return static_cast<double>(sim_t - sim_t0) / config.acceleration;
  };

  auto maybe_pace = [&](double scheduled_ms) {
    if (config.as_fast_as_possible) return;
    double now = MsSince(t0);
    if (now < scheduled_ms) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(scheduled_ms - now));
    }
  };

  auto run_short_read_sequence = [&](bool person_centric,
                                     double scheduled_ms) {
    double p = config.short_read_probability;
    while (rng.NextDouble() < p) {
      p *= 0.5;
      if (person_centric && !recent_persons.empty()) {
        core::Id person = recent_persons[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(recent_persons.size()) - 1))];
        recorder.Run("IS 1", scheduled_ms, t0, [&] {
          return interactive::RunIs1(graph, person).size();
        });
        recorder.Run("IS 2", scheduled_ms, t0, [&] {
          auto rows = interactive::RunIs2(graph, person);
          for (const auto& r : rows) {
            remember_message(r.original_post_id, true);
          }
          return rows.size();
        });
        recorder.Run("IS 3", scheduled_ms, t0, [&] {
          auto rows = interactive::RunIs3(graph, person);
          for (const auto& r : rows) remember_person(r.person_id);
          return rows.size();
        });
        ++report.short_reads;
        report.short_reads += 2;
      } else if (!recent_messages.empty()) {
        auto [message, is_post] =
            recent_messages[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(recent_messages.size()) - 1))];
        recorder.Run("IS 4", scheduled_ms, t0, [&] {
          return interactive::RunIs4(graph, message, is_post).size();
        });
        recorder.Run("IS 5", scheduled_ms, t0, [&] {
          auto rows = interactive::RunIs5(graph, message, is_post);
          for (const auto& r : rows) remember_person(r.person_id);
          return rows.size();
        });
        recorder.Run("IS 6", scheduled_ms, t0, [&] {
          return interactive::RunIs6(graph, message, is_post).size();
        });
        recorder.Run("IS 7", scheduled_ms, t0, [&] {
          auto rows = interactive::RunIs7(graph, message, is_post);
          for (const auto& r : rows) remember_person(r.author_id);
          return rows.size();
        });
        report.short_reads += 4;
      } else {
        break;
      }
    }
  };

  auto run_complex = [&](int type, double scheduled_ms) {
    const std::string op = "IC " + std::to_string(type + 1);
    bool person_centric = true;
    switch (type + 1) {
      case 1: {
        auto& ps = params.ic1;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          auto rows =
              interactive::RunIc1(graph, ps[cursor[type]++ % ps.size()]);
          for (const auto& r : rows) remember_person(r.friend_id);
          return rows.size();
        });
        break;
      }
      case 2: {
        auto& ps = params.ic2;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          auto rows =
              interactive::RunIc2(graph, ps[cursor[type]++ % ps.size()]);
          for (const auto& r : rows) remember_person(r.person_id);
          return rows.size();
        });
        person_centric = false;
        break;
      }
      case 3: {
        auto& ps = params.ic3;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          return interactive::RunIc3(graph, ps[cursor[type]++ % ps.size()])
              .size();
        });
        break;
      }
      case 4: {
        auto& ps = params.ic4;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          return interactive::RunIc4(graph, ps[cursor[type]++ % ps.size()])
              .size();
        });
        break;
      }
      case 5: {
        auto& ps = params.ic5;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          return interactive::RunIc5(graph, ps[cursor[type]++ % ps.size()])
              .size();
        });
        break;
      }
      case 6: {
        auto& ps = params.ic6;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          return interactive::RunIc6(graph, ps[cursor[type]++ % ps.size()])
              .size();
        });
        break;
      }
      case 7: {
        auto& ps = params.ic7;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          auto rows =
              interactive::RunIc7(graph, ps[cursor[type]++ % ps.size()]);
          for (const auto& r : rows) remember_person(r.person_id);
          return rows.size();
        });
        person_centric = false;
        break;
      }
      case 8: {
        auto& ps = params.ic8;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          auto rows =
              interactive::RunIc8(graph, ps[cursor[type]++ % ps.size()]);
          for (const auto& r : rows) remember_person(r.person_id);
          return rows.size();
        });
        person_centric = false;
        break;
      }
      case 9: {
        auto& ps = params.ic9;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          auto rows =
              interactive::RunIc9(graph, ps[cursor[type]++ % ps.size()]);
          for (const auto& r : rows) remember_person(r.person_id);
          return rows.size();
        });
        break;
      }
      case 10: {
        auto& ps = params.ic10;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          auto rows =
              interactive::RunIc10(graph, ps[cursor[type]++ % ps.size()]);
          for (const auto& r : rows) remember_person(r.person_id);
          return rows.size();
        });
        break;
      }
      case 11: {
        auto& ps = params.ic11;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          return interactive::RunIc11(graph, ps[cursor[type]++ % ps.size()])
              .size();
        });
        break;
      }
      case 12: {
        auto& ps = params.ic12;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          auto rows =
              interactive::RunIc12(graph, ps[cursor[type]++ % ps.size()]);
          for (const auto& r : rows) remember_person(r.person_id);
          return rows.size();
        });
        break;
      }
      case 13: {
        auto& ps = params.ic13;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          interactive::RunIc13(graph, ps[cursor[type]++ % ps.size()]);
          return size_t{1};
        });
        break;
      }
      case 14: {
        auto& ps = params.ic14;
        if (ps.empty()) return;
        recorder.Run(op, scheduled_ms, t0, [&] {
          return interactive::RunIc14(graph, ps[cursor[type]++ % ps.size()])
              .size();
        });
        break;
      }
      default:
        SNB_UNREACHABLE();
    }
    ++report.complex_reads;
    run_short_read_sequence(person_centric, scheduled_ms);
  };

  size_t limit = config.max_updates == 0 ? updates.size()
                                         : std::min(config.max_updates,
                                                    updates.size());
  for (size_t u = 0; u < limit; ++u) {
    const datagen::UpdateEvent& event = updates[u];
    double scheduled_ms = scheduled_ms_of(event.timestamp);
    maybe_pace(scheduled_ms);
    const std::string op = "IU " + std::to_string(static_cast<int>(event.kind));
    recorder.Run(op, scheduled_ms, t0, [&] {
      SNB_CHECK(interactive::ApplyUpdate(graph, event).ok());
      return size_t{1};
    });
    ++report.update_operations;
    // Seed the short-read parameter pool from the update itself.
    switch (event.kind) {
      case datagen::UpdateKind::kAddPerson:
        remember_person(std::get<core::Person>(event.payload).id);
        break;
      case datagen::UpdateKind::kAddLikePost:
      case datagen::UpdateKind::kAddLikeComment: {
        const core::Like& like = std::get<core::Like>(event.payload);
        remember_person(like.person);
        remember_message(like.message, like.is_post);
        break;
      }
      case datagen::UpdateKind::kAddPost:
        remember_message(std::get<core::Post>(event.payload).id, true);
        break;
      case datagen::UpdateKind::kAddComment:
        remember_message(std::get<core::Comment>(event.payload).id, false);
        break;
      case datagen::UpdateKind::kAddKnows:
        remember_person(std::get<core::Knows>(event.payload).person1);
        break;
      default:
        break;
    }
    for (int type = 0; type < 14; ++type) {
      if (--countdown[type] == 0) {
        countdown[type] = freq.freq[type];
        run_complex(type, scheduled_ms);
      }
    }
  }

  report.wall_seconds = MsSince(t0) / 1000.0;
  report.throughput_ops_per_sec =
      report.wall_seconds == 0
          ? 0
          : static_cast<double>(report.total_operations) / report.wall_seconds;
  report.on_time_fraction =
      report.total_operations == 0
          ? 1.0
          : 1.0 - static_cast<double>(recorder.late()) /
                      static_cast<double>(report.total_operations);
  return report;
}

util::Status WriteResultsLog(const std::vector<ResultsLogEntry>& log,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return util::Status::IoError("cannot open results log " + path);
  }
  std::fputs(
      "operation|scheduled_start_time|actual_start_time|duration|"
      "result_rows\n",
      f);
  for (const ResultsLogEntry& e : log) {
    std::fprintf(f, "%s|%.3f|%.3f|%.3f|%zu\n", e.operation.c_str(),
                 e.scheduled_start_ms, e.actual_start_ms, e.duration_ms,
                 e.result_rows);
  }
  if (std::fclose(f) != 0) {
    return util::Status::IoError("fclose failed for results log");
  }
  return util::Status::Ok();
}

}  // namespace snb::driver
