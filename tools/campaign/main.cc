// Fault-campaign runner: executes schedules with the online protocol
// auditor armed, and reports what it saw.
//
// Each run builds the paper's testbed (Appendix D), deploys a counter app
// under RedPlane on both aggregation switches, drives traffic from an
// external host while a schedule (tools/campaign/schedule.h) injects faults
// and adversarial load, and checks the protocol live with src/audit: single
// lease owner, sequence monotonicity, chain-commit-before-ack, ε staleness,
// and per-flow counter linearizability.
//
// The schedules come from one of two sources; everything after that — run,
// report, verdict (tools/campaign/verdict.h), minimization — is one path:
//
//   --schedule=FILE|DIR — replay schedule JSON files (a directory runs every
//   *.json in it, sorted).  tests/schedules/ holds the four named failure
//   scenarios (switch_crash, link_flap, lease_race, store_failover) and the
//   minimized fuzz repros.  --seeds=K runs each file K times, re-seeded to
//   seed + 1000·k for k < K.
//
//   --fuzz=N — the adversarial scenario engine (DESIGN.md §15): N seeded
//   random schedules of fault events (crashes, link cuts, gray failures,
//   ECMP re-salts) composed with adversarial load phases (flash crowds,
//   lease churn, SYN floods), with --packets base rounds per flow
//   (default 40).
//   --fuzz-class picks a scenario-class focus.
//
// --mutate turns the batch into a detector self-test (the expected monitor
// must fire somewhere in the batch, or stay silent where the mutation is
// legal).  On a clean-run violation the first violating schedule is
// delta-debugged down to a 1-minimal causal slice and written as a
// replayable JSON artifact.  Every run prints its deterministic trace hash;
// --expect-hash=H fails a single-run invocation whose replay diverges.
//
// Exit codes: 0 = clean (or, with --mutate, the expected monitor fired — or
// the auditor correctly stayed silent where the mutation is legal);
// 1 = invariant violation on a clean run, a missing or inconsistent
// recovery episode, a monitor firing on a legal mutation, or a replay hash
// mismatch; 2 = a --mutate run where the expected monitor stayed silent
// (the oracle is broken); 64 = usage error.
//
// Usage:
//   campaign (--schedule=FILE|DIR [--seeds=K] [--expect-hash=H] |
//             --fuzz=N [--fuzz-class=mixed|gray|churn|flash|capacity]
//             [--fuzz-seed=BASE] [--packets=40])
//            [--out-dir=campaign_out]
//            [--mutate=none|lease|chain|seq|stale|merge]
//            [--consistency=single|replicated|mergeable]
//            [--batching=<coalesce delay in us; 0 = off>] [--no-minimize]
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/campaign/minimizer.h"
#include "tools/campaign/runner.h"
#include "tools/campaign/schedule.h"
#include "tools/campaign/verdict.h"

namespace redplane::campaign {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Loads one schedule file, or every *.json in a directory (sorted), each
/// re-seeded `seeds` times.  Labels are the file stems.  False on an
/// unreadable or malformed file, or when no file was found.
bool LoadSchedules(const std::string& path, int seeds,
                   std::vector<Schedule>& schedules,
                   std::vector<std::string>& labels) {
  std::vector<std::filesystem::path> files;
  if (std::filesystem::is_directory(path)) {
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
  } else {
    files.emplace_back(path);
  }
  for (const std::filesystem::path& file : files) {
    const std::optional<Schedule> sched = ScheduleFromJson(ReadFile(file));
    if (!sched.has_value()) {
      std::cerr << "unreadable or malformed schedule: " << file.string()
                << "\n";
      return false;
    }
    for (int k = 0; k < seeds; ++k) {
      Schedule s = *sched;
      s.seed += 1000ull * static_cast<std::uint64_t>(k);
      schedules.push_back(std::move(s));
      labels.push_back(file.stem().string());
    }
  }
  return !files.empty();
}

int Main(int argc, char** argv) {
  int seeds = 0;    // 0 = not given
  int packets = 0;  // 0 = not given
  int batching_us = 0;
  int fuzz_runs = 0;
  std::uint64_t fuzz_seed = 1000;
  bool minimize = true;
  std::string out_dir = "campaign_out";
  std::string mutate = "none";
  std::string consistency = "single";
  std::string fuzz_class_name = "mixed";
  std::string schedule_path;
  std::string expect_hash;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--seeds=")) {
      seeds = std::max(1, std::atoi(v));
    } else if (const char* v = value("--packets=")) {
      packets = std::max(kMinPacketsPerFlow, std::atoi(v));
    } else if (const char* v = value("--out-dir=")) {
      out_dir = v;
    } else if (const char* v = value("--mutate=")) {
      mutate = v;
    } else if (const char* v = value("--consistency=")) {
      consistency = v;
    } else if (const char* v = value("--batching=")) {
      batching_us = std::max(0, std::atoi(v));
    } else if (const char* v = value("--fuzz=")) {
      fuzz_runs = std::max(1, std::atoi(v));
    } else if (const char* v = value("--fuzz-class=")) {
      fuzz_class_name = v;
    } else if (const char* v = value("--fuzz-seed=")) {
      fuzz_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--no-minimize") {
      minimize = false;
    } else if (const char* v = value("--schedule=")) {
      schedule_path = v;
    } else if (const char* v = value("--expect-hash=")) {
      expect_hash = v;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return kExitUsage;
    }
  }

  MutationSpec mut;
  if (mutate == "lease") {
    mut.lease = true;
  } else if (mutate == "seq") {
    mut.seq = true;
  } else if (mutate == "chain") {
    mut.chain = true;
  } else if (mutate == "stale") {
    mut.stale = true;
  } else if (mutate == "merge") {
    mut.merge = true;
  } else if (mutate != "none") {
    std::cerr << "unknown --mutate mode: " << mutate << "\n";
    return kExitUsage;
  }

  core::ConsistencyMode mode = core::ConsistencyMode::kSingleOwner;
  if (consistency == "replicated") {
    mode = core::ConsistencyMode::kReplicatedRead;
  } else if (consistency == "mergeable") {
    mode = core::ConsistencyMode::kMergeable;
  } else if (consistency != "single") {
    std::cerr << "unknown --consistency mode: " << consistency << "\n";
    return kExitUsage;
  }

  // Build the batch: fuzz-drawn or file-sourced schedules.
  std::vector<Schedule> schedules;
  std::vector<std::string> labels;
  if ((fuzz_runs > 0) == !schedule_path.empty()) {
    std::cerr << "give exactly one of --fuzz=N or --schedule=FILE|DIR\n";
    return kExitUsage;
  }
  if (fuzz_runs > 0) {
    const std::optional<FuzzClass> fc = FuzzClassFromName(fuzz_class_name);
    if (!fc.has_value()) {
      std::cerr << "unknown --fuzz-class: " << fuzz_class_name << "\n";
      return kExitUsage;
    }
    if (seeds > 0) {
      std::cerr << "--seeds re-seeds schedule files; use --fuzz-seed with "
                   "--fuzz\n";
      return kExitUsage;
    }
    GeneratorConfig gen_cfg;
    gen_cfg.focus = *fc;
    if (packets > 0) gen_cfg.packets_per_flow = packets;
    for (int i = 0; i < fuzz_runs; ++i) {
      schedules.push_back(GenerateSchedule(
          fuzz_seed + static_cast<std::uint64_t>(i), gen_cfg));
      labels.push_back(std::string("fuzz_") + FuzzClassName(*fc) + "_" +
                       std::to_string(i));
    }
  } else if (packets > 0) {
    std::cerr << "schedule files carry their own packets_per_flow; --packets "
                 "applies to --fuzz\n";
    return kExitUsage;
  } else if (!LoadSchedules(schedule_path, std::max(1, seeds), schedules,
                            labels)) {
    std::cerr << "no schedule loaded from " << schedule_path << "\n";
    return kExitUsage;
  }
  if (!expect_hash.empty() && schedules.size() != 1) {
    std::cerr << "--expect-hash needs exactly one run, got "
              << schedules.size() << "\n";
    return kExitUsage;
  }

  const SimDuration coalesce_delay = Microseconds(batching_us);
  std::vector<RunResult> runs;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const Schedule& sched = schedules[i];
    std::cout << "[campaign] " << labels[i] << " seed=" << sched.seed
              << " events=" << sched.NumEvents()
              << " consistency=" << consistency
              << (batching_us > 0 ? " batching=on" : "") << " ..."
              << std::flush;
    RunResult r =
        RunSchedule(sched, mode, mut, out_dir, labels[i], coalesce_delay);
    std::cout << " sent=" << r.sent << " delivered=" << r.delivered
              << " violations=" << TotalViolations(r)
              << " trace_hash=" << r.trace_hash << "\n";
    runs.push_back(std::move(r));
  }

  std::filesystem::create_directories(out_dir);
  {
    std::ofstream json(out_dir + "/report.json");
    WriteJsonReport(json, runs, mode, mut);
    std::ofstream md(out_dir + "/report.md");
    WriteMarkdownReport(md, runs);
  }
  std::cout << "[campaign] wrote " << out_dir << "/report.json and report.md\n";

  if (!expect_hash.empty() &&
      expect_hash != std::to_string(runs.front().trace_hash)) {
    std::cerr << "[campaign] FAIL: replay hash " << runs.front().trace_hash
              << " != expected " << expect_hash << " (nondeterminism)\n";
    return kExitViolation;
  }

  const Verdict verdict = Judge(schedules, runs, mode, mut);
  if (verdict.exit_code == kExitOk) {
    std::cout << "[campaign] OK: " << verdict.message << "\n";
    return kExitOk;
  }
  std::cerr << "[campaign] FAIL: " << verdict.message << "\n";

  // A clean-run violation: shrink the first violating schedule to its
  // causal slice and ship it as a replayable artifact.
  const auto bad = std::find_if(runs.begin(), runs.end(),
                                [](const RunResult& r) { return !r.Clean(); });
  if (mut.any() || bad == runs.end()) return verdict.exit_code;
  const Schedule& failing =
      schedules[static_cast<std::size_t>(bad - runs.begin())];
  const std::string full_path = out_dir + "/failing_" +
                                std::to_string(failing.seed) + ".schedule.json";
  std::ofstream(full_path) << ToJson(failing);
  if (!minimize) {
    std::cerr << "[campaign] repro: " << full_path << "\n";
    return verdict.exit_code;
  }
  const std::string probe_dir = out_dir + "/minimize_probes";
  int probe_no = 0;
  auto oracle = [&](const Schedule& candidate) {
    return !RunSchedule(candidate, mode, mut, probe_dir,
                        "probe_" + std::to_string(probe_no++), coalesce_delay)
                .Clean();
  };
  const MinimizeResult min = MinimizeSchedule(failing, oracle);
  const std::string min_path = out_dir + "/minimized_" +
                               std::to_string(failing.seed) + ".schedule.json";
  std::ofstream(min_path) << ToJson(min.schedule);
  std::cerr << "[campaign] minimized " << failing.NumEvents() << " -> "
            << min.schedule.NumEvents() << " events in " << min.probes
            << " probes"
            << (min.one_minimal ? " (1-minimal)" : " (probe budget hit)")
            << "; repro: " << min_path << "\n";
  return verdict.exit_code;
}

}  // namespace
}  // namespace redplane::campaign

int main(int argc, char** argv) {
  return redplane::campaign::Main(argc, argv);
}
