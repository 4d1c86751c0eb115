// The benchmark binary: runs one workload in this process and prints its
// report.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--scale F] [--mutate counter|mapping]
//   perfbench --selftest alloc
//
// Untraced (--trace 0): repeats the workload (fresh testbed each time, same
// seed) until S host seconds have passed, at least three times, and reports
// the end-to-end metrics: host-time metrics as the median over repetitions,
// simulated metrics from the repetitions (which must agree exactly).
// Traced (--trace 1): half the time untraced, then at least one repetition
// with the profiler, tracer and layer decorators armed; reports the
// per-layer metrics.  The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Pct(const std::vector<std::int64_t>& ns, double p, double unit_ns) {
  if (ns.empty()) return 0;
  redplane::SampleSet s;
  for (std::int64_t v : ns) s.Add(static_cast<double>(v) / unit_ns);
  return s.Percentile(p);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--scale F] "
               "[--mutate counter|mapping]\n       perfbench "
               "--selftest alloc\n",
               why);
  return 2;
}

/// The allocation counter must see exactly the allocations made.
int AllocSelfTest() {
  std::vector<int*> ptrs;
  ptrs.reserve(1000);
  const std::uint64_t a0 = AllocCount();
  for (int i = 0; i < 1000; ++i) ptrs.push_back(new int(i));
  const std::uint64_t news = AllocCount() - a0;
  long long sum = 0;
  for (int* p : ptrs) sum += *p;
  for (int* p : ptrs) delete p;
  const std::uint64_t a1 = AllocCount();
  std::vector<long long> grown;
  grown.reserve(64);  // one allocation
  for (int i = 0; i < 64; ++i) grown.push_back(i);
  const std::uint64_t vec = AllocCount() - a1;
  const std::uint64_t a2 = AllocCount();
  long long stack_sum = 0;
  for (int i = 0; i < 1000; ++i) stack_sum += i;  // no heap use at all
  const std::uint64_t none = AllocCount() - a2;
  const bool ok = news == 1000 && vec == 1 && none == 0 &&
                  sum == 499500 && stack_sum == 499500 && grown.size() == 64;
  std::printf("alloc self-test: 1000 new -> %llu, reserved vector -> %llu, "
              "stack loop -> %llu: %s\n",
              static_cast<unsigned long long>(news),
              static_cast<unsigned long long>(vec),
              static_cast<unsigned long long>(none), ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

void PrintMetric(const NamedValue& m) {
  std::printf("  %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.base.c_str());
}

struct Summary {
  std::vector<RepResult> reps;

  /// Whole-repetition speeds, for the report.
  std::vector<double> pps() const {
    std::vector<double> out;
    for (const RepResult& r : reps) {
      out.push_back(r.measure_s > 0
                        ? static_cast<double>(r.deliveries) / r.measure_s
                        : 0);
    }
    return out;
  }

  /// Host speed of the simulator.  Every repetition simulates the same
  /// thing, slice by slice, and interference from other tenants of the
  /// host only ever slows a slice down; so the measured run's host time is
  /// the sum over slices of each slice's fastest repetition.
  double slice_pps() const {
    if (reps.empty()) return 0;
    std::vector<double> best = reps.front().slice_s;
    for (const RepResult& r : reps) {
      for (std::size_t i = 0; i < best.size() && i < r.slice_s.size(); ++i) {
        best[i] = std::min(best[i], r.slice_s[i]);
      }
    }
    double total = 0;
    for (double s : best) total += s;
    return total > 0 ? static_cast<double>(reps.front().deliveries) / total
                     : 0;
  }
};

/// Runs repetitions until `budget_s` has passed since `t0` and at least
/// `min_reps` have run.
void RunReps(const Options& opt, bool traced, Clock::time_point t0,
             double budget_s, std::size_t min_reps, Summary& out) {
  while (out.reps.size() < min_reps ||
         std::chrono::duration<double>(Clock::now() - t0).count() <
             budget_s) {
    out.reps.push_back(RunRep(opt, traced));
  }
}

int Main(int argc, char** argv) {
  Options opt;
  std::string trace_arg = "0";
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val.c_str());
      have_seconds = true;
    } else if (arg == "--trace") {
      trace_arg = val;
    } else if (arg == "--scale") {
      opt.scale = std::atof(val.c_str());
    } else if (arg == "--mutate") {
      opt.mutate = val;
    } else if (arg == "--selftest") {
      if (val == "alloc") return AllocSelfTest();
      return Usage(("unknown self-test " + val).c_str());
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const auto names = WorkloadNames();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (!have_seed || !have_seconds) return Usage("--seed and --seconds are required");
  if (trace_arg != "0" && trace_arg != "1") return Usage("--trace takes 0 or 1");
  if (opt.scale <= 0 || opt.seconds < 0) return Usage("bad --scale/--seconds");
  if (!opt.mutate.empty() && opt.mutate != "counter" &&
      opt.mutate != "mapping") {
    return Usage("--mutate takes counter or mapping");
  }
  opt.trace = trace_arg == "1";

  const auto t0 = Clock::now();
  Summary plain, traced;
  // Peak memory of one repetition: later ones reuse the freed heap, so the
  // process high-water mark after the first is the workload's footprint.
  plain.reps.push_back(RunRep(opt, false));
  const double peak_rss_mb = PeakRssMb();
  RunReps(opt, false, t0, opt.trace ? opt.seconds / 2 : opt.seconds,
          opt.trace ? 2 : 3, plain);
  if (opt.trace) RunReps(opt, true, t0, opt.seconds, 1, traced);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  const RepResult& first = plain.reps.front();
  const RepResult& last = plain.reps.back();
  // The first repetition also pays for lazily built statics, so allocation
  // counts are compared from the second on.
  std::set<std::string> problems;
  for (const Summary* s : {&plain, &traced}) {
    for (const RepResult& r : s->reps) {
      if (r.digest != first.digest) {
        problems.insert("simulated statistics differ between repetitions");
      }
      if (r.events != first.events) {
        problems.insert("event count differs between repetitions");
      }
    }
  }
  for (std::size_t i = 2; i < plain.reps.size(); ++i) {
    if (plain.reps[i].allocs != plain.reps[1].allocs) {
      problems.insert("allocation count differs between repetitions");
    }
  }
  std::uint64_t violations = 0;
  for (const Summary* s : {&plain, &traced}) {
    for (const RepResult& r : s->reps) violations += r.violation_count;
  }

  const double pkts =
      static_cast<double>(std::max<std::uint64_t>(1, last.deliveries));
  const std::vector<double> plain_pps_all = plain.pps();
  const double plain_pps = plain.slice_pps();
  std::vector<double> setup;
  for (const Summary* s : {&plain, &traced}) {
    for (const RepResult& r : s->reps) setup.push_back(r.setup_s);
  }

  std::printf("perfbench %s seed %llu: %zu untraced + %zu traced "
              "repetitions in %.2f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              plain.reps.size(), traced.reps.size(), wall);
  for (const std::string& n : first.notes) std::printf("  %s\n", n.c_str());
  std::printf("  sim_digest %016llx (every repetition: %s)\n",
              static_cast<unsigned long long>(first.digest),
              problems.empty() ? "identical" : "NOT identical");
  std::printf("  per repetition: %llu events, %llu allocations, %llu app "
              "packets delivered to host sinks\n",
              static_cast<unsigned long long>(last.events),
              static_cast<unsigned long long>(last.allocs),
              static_cast<unsigned long long>(last.deliveries));
  std::printf("  untraced sim_pps: %.0f from the fastest repetition of each "
              "of %zu slices; whole repetitions: best %.0f, median %.0f, "
              "worst %.0f\n",
              plain_pps, first.slice_s.size(),
              *std::max_element(plain_pps_all.begin(), plain_pps_all.end()),
              Median(plain_pps_all),
              *std::min_element(plain_pps_all.begin(), plain_pps_all.end()));
  std::printf("  operations: attempted %llu, ok %llu, wrong %llu, lost %llu, "
              "lost inside a fault window %llu\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.ok),
              static_cast<unsigned long long>(first.wrong),
              static_cast<unsigned long long>(first.lost),
              static_cast<unsigned long long>(first.excused));
  const double p999 = Pct(first.latency_ns, 99.9, 1e3);
  std::size_t beyond = 0;
  for (std::int64_t v : first.latency_ns) {
    beyond += static_cast<double>(v) / 1e3 > p999 ? 1 : 0;
  }
  std::printf("  latency (%s): %zu samples, %zu beyond p99.9; downtime over "
              "%zu flows\n",
              first.latency_kind.c_str(), first.latency_ns.size(), beyond,
              first.downtime_ns.size());
  for (const NamedValue& f : first.fidelity) {
    std::printf("  %s %.2f %s (informational, vs %s)\n", f.name.c_str(),
                f.value, f.unit.c_str(), f.base.c_str());
  }
  for (const std::string& p : problems) std::printf("  PROBLEM: %s\n", p.c_str());
  for (const Summary* s : {&plain, &traced}) {
    for (const RepResult& r : s->reps) {
      for (const std::string& v : r.violations) {
        std::printf("  VIOLATION: %s\n", v.c_str());
      }
    }
  }

  std::vector<NamedValue> metrics;
  if (!opt.trace) {
    metrics = {
        {"sim_pps", plain_pps, "1/s", "fastest repetition per slice"},
        {"setup_s", Median(setup), "s", "median of repetitions"},
        {"peak_rss_mb", peak_rss_mb, "MB", "after the first repetition"},
        {"events_per_pkt", static_cast<double>(last.events) / pkts, "count",
         "per delivered app packet"},
        {"allocs_per_pkt", static_cast<double>(last.allocs) / pkts, "count",
         "per delivered app packet"},
        {"lat_p50_us", Pct(first.latency_ns, 50, 1e3), "us", first.latency_kind},
        {"lat_p99_us", Pct(first.latency_ns, 99, 1e3), "us", first.latency_kind},
        {"lat_p999_us", p999, "us", first.latency_kind},
        {"delivered_frac",
         static_cast<double>(first.ok) /
             static_cast<double>(std::max<std::uint64_t>(1, first.attempted)),
         "frac", "of injected operations"},
        {"repl_overhead_pct", first.repl_overhead_pct, "%", ""},
        {"downtime_p50_ms", Pct(first.downtime_ns, 50, 1e6), "ms", "over flows"},
        {"downtime_p99_ms", Pct(first.downtime_ns, 99, 1e6), "ms", "over flows"},
    };
  } else {
    // Per-layer host times come from the traced repetition of median
    // speed; the overhead compares the two modes' slice estimates.
    std::vector<const RepResult*> by_speed;
    for (const RepResult& r : traced.reps) by_speed.push_back(&r);
    std::sort(by_speed.begin(), by_speed.end(),
              [](const RepResult* a, const RepResult* b) {
                return a->measure_s < b->measure_s;
              });
    const RepResult& rep = *by_speed[by_speed.size() / 2];
    metrics = rep.layers;
    metrics.push_back({"obs.trace_overhead_frac",
                       plain_pps > 0 ? 1.0 - traced.slice_pps() / plain_pps
                                     : 0,
                       "frac", "untraced sim_pps=" + std::to_string(plain_pps)});
    for (const std::string& n : rep.trace_report) {
      std::printf("  %s\n", n.c_str());
    }
  }
  std::printf("  %-34s %14s %-6s %s\n", "metric", "value", "unit", "base");
  for (const NamedValue& m : metrics) PrintMetric(m);

  const bool correct = problems.empty() && violations == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(first.attempted);
  json += ", \"failed\": " + std::to_string(first.wrong + first.lost);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
