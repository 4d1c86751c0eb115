// The benchmark's three workloads on the simulated RedPlane testbed.
//
// One call to RunRep builds a fresh testbed, deploys the workload's app,
// lets routes settle, generates the seeded trace (set-up), then runs the
// open-loop injection to completion (the measured run) and checks every
// output.  The workload's size is fixed by the seed alone, so every
// simulated statistic of a repetition is a pure function of (workload,
// seed); only host times vary between repetitions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Workload size multiplier; the self-tests use small values.
  double scale = 1.0;
  /// Self-test hook: "counter" or "mapping" corrupts one expected value so
  /// the correctness check must fail.
  std::string mutate;
};

/// One reported number; `base` names the denominator of a ratio.
struct NamedValue {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;
};

struct RepResult {
  // Host time.
  double setup_s = 0;    // build + deploy + settle + trace generation
  double measure_s = 0;  // the measured simulation run
  /// Host seconds of each fixed sim-time slice of the measured run (every
  /// repetition has the same slices).
  std::vector<double> slice_s;
  double gen_s = 0;      // trace::GenerateFlowMix alone
  double build_s = 0;    // routing::BuildTestbed alone

  // Operations (probes on nat_steady, packets elsewhere).
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;       // delivered and verified
  std::uint64_t wrong = 0;    // delivered but failed verification
  std::uint64_t lost = 0;     // never delivered, outside any fault window
  std::uint64_t excused = 0;  // never delivered, inside a fault window
  std::uint64_t deliveries = 0;  // application packets handed to host sinks

  // Deterministic counts over the measured run.
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;

  // Simulated statistics.
  std::string latency_kind;
  std::vector<std::int64_t> latency_ns;
  std::vector<std::int64_t> downtime_ns;  // one per flow
  double repl_overhead_pct = 0;
  std::uint64_t digest = 0;

  std::uint64_t violation_count = 0;
  std::vector<std::string> violations;  // first few, for the report

  std::vector<NamedValue> layers;    // traced repetitions only
  std::vector<NamedValue> fidelity;  // informational, ungated
  std::vector<std::string> notes;    // workload configuration lines
  /// Traced repetitions only: host-time share per layer, span checks.
  std::vector<std::string> trace_report;
};

/// Runs one repetition of `opt.workload`.  Throws std::invalid_argument for
/// an unknown workload name.
RepResult RunRep(const Options& opt, bool traced);

/// The workload names RunRep accepts.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench
