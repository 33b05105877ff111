//===- perfbench/cpp/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run options, sample
/// sets with percentiles, the report a workload fills (metrics, attempt
/// and failure counts, sample counts), and the per-layer analysis of the
/// runtime's own trace events (`rt::Tracer`) and executor counters.
///
/// The benchmark measures each layer from outside: it times calls into
/// the layers' public functions and reads the hooks the runtime already
/// exposes. It changes no program code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "runtime/Stats.h"
#include "runtime/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// CPUs the process may run on (`nproc`).
  unsigned Cpus = 1;
  /// Workers of a closed-loop workload's executor: one CPU fewer than
  /// `Cpus`, because the calling thread validates (and helps while it
  /// waits), so that the threads doing work number `Cpus`. One thread more
  /// than CPUs measures the guest scheduler, and on a shared host a vCPU
  /// the hypervisor takes away then stalls a worker the validator waits
  /// for, instead of leaving one thread without a core.
  unsigned Workers = 1;
};

/// A set of timings (or counts) with nearest-rank percentiles.
class Samples {
public:
  void add(double X) { V.push_back(X); }
  size_t size() const { return V.size(); }
  bool empty() const { return V.empty(); }
  /// Nearest-rank percentile, \p P in [0, 100]. 0 for an empty set.
  double pct(double P) const;
  double median() const { return pct(50); }
  double mean() const;

private:
  std::vector<double> V;
};

/// The host's CPU time so far, in /proc/stat clock ticks: all of it, and
/// the part the hypervisor stole for other guests. Zeros where unreadable.
struct CpuTicks {
  uint64_t Total = 0;
  uint64_t Steal = 0;
};
CpuTicks cpuTicks();

/// The benchmark's repeated set-up: runs \p Setup \p Times times and
/// returns the median wall time in seconds. Each repetition replaces the
/// previous one's state, so the last one is what the timed loop uses.
double timedSetups(int Times, const std::function<void()> &Setup);

/// Number of set-ups per run whose median is reported as `setup_s`.
inline constexpr int kSetupRepeats = 3;

/// Warm-up passes of each set-up. On a fresh executor the first ~6 runs
/// are up to 50% slower than later ones; two passes over a few of a
/// workload's inputs (at least 8 runs) leave run times level. A fixed
/// count, rather than "until stable", keeps set-up time from following
/// the noise.
inline constexpr int kWarmPasses = 2;

/// One workload run's result.
struct Report {
  struct Metric {
    double Value = 0;
    std::string Unit;
    /// Samples behind the value (0: a single measurement or a count).
    size_t N = 0;
  };
  std::map<std::string, Metric> Metrics;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// Failures of the benchmark's own consistency checks (trace drops,
  /// time reconciliation). They make the run incorrect without counting
  /// as a failed operation.
  std::vector<std::string> CheckErrors;
  std::vector<std::string> Notes;
  /// Worker counts behind the run, by role.
  std::map<std::string, unsigned> WorkerCounts;

  void set(const std::string &Name, double Value, const std::string &Unit,
           size_t N = 0) {
    Metrics[Name] = Metric{Value, Unit, N};
  }
  /// Records one failed operation (wrong output, throw, timeout, reject).
  void fail(const std::string &Why);
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Sets `job_ms_tail`: the \p P-th percentile of \p JobMs.
  void setJobTail(const Samples &JobMs, double P);
};

/// The heap the program has allocated and not freed, in MiB: glibc's
/// bytes in use over all arenas plus its mmapped blocks. `heap_mb` is its
/// mean over a run's samples, each taken when a timed run or job has
/// just returned, its output still alive: the memory a run leaves
/// allocated at its end. The resident set is not used: freed memory that
/// glibc's per-thread arenas keep, and the high-water mark they happen to
/// reach, moved it by 6-15% between runs of the same code.
double heapInUseMb();

/// One speculative run to account for: its window on the tracer's clock,
/// or the serving job whose events it is (JobId != 0, bounded by its own
/// first and last event).
struct RunSpan {
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint64_t JobId = 0;
  /// Narrow the window to the run's first and last event: for programs
  /// whose sequential code around the speculative region is not the
  /// runtime's time.
  bool TrimToEvents = false;
};

/// The runtime and executor layers of a set of traced runs, summed over
/// the runs (divide by `Runs` for per-run values).
struct RuntimeTotals {
  int64_t Runs = 0;
  int64_t Attempts = 0;      ///< Dispatch events.
  int64_t Accepted = 0;      ///< ValidateAccept events.
  double BodyMs = 0;         ///< Sum of attempt Start -> Finish.
  double WastedBodyMs = 0;   ///< The same, for attempts never accepted.
  double ReexecMs = 0;       ///< Validator Reexecute -> Finalize.
  double FinalizeMs = 0;     ///< Validator ValidateAccept -> Finalize.
  double ValidateWaitMs = 0; ///< Validator time in neither of the above.
  double WallMs = 0;         ///< Sum of the runs' wall times.
  /// Runs timed from outside: their wall time, and the part of it before
  /// their first or after their last event, which the trace cannot split.
  double ReconciledWallMs = 0;
  double UnspannedMs = 0;
  Samples DispatchWaitUs;    ///< Per attempt, Dispatch -> Start.
};

/// Splits \p Events (one tracer's snapshot, in Seq order) into the runs
/// of \p Spans and adds their runtime and executor accounting to \p Out.
/// Runs with a JobId take the events stamped with it; the others take the
/// unstamped events inside their time window. A run without a window of
/// its own (JobId, TrimToEvents) spans its first to its last event.
void accumulateRuntime(const std::vector<specpar::rt::SpecEvent> &Events,
                       const std::vector<RunSpan> &Spans, RuntimeTotals &Out);

/// Tolerance of the reconciliation check: the share of the wall time of
/// runs timed from outside that their trace events may leave unspanned.
inline constexpr double kReconcileTolerance = 0.10;

/// Writes every `runtime.*`, `executor.*` and `trace.*` per-layer metric
/// into \p R from \p RT (trace events), \p Exec (executor counter deltas
/// summed over \p ExecRuns untraced runs), \p Mispredictions / \p
/// Predictions (the traced runs' speculation counters), the untraced and
/// traced run times, the
/// tracer's drop count and \p Workers. Checks drops and the
/// reconciliation, recording failures in `R.CheckErrors`.
void reportRuntimeLayers(Report &R, const RuntimeTotals &RT,
                         const specpar::rt::ExecutorStats &Exec,
                         int64_t ExecRuns, int64_t Mispredictions,
                         int64_t Predictions, const Samples &PlainMs,
                         const Samples &TracedMs, uint64_t DroppedEvents,
                         unsigned Threads);

/// The benchmark's workloads.
Report runLexJava(const Options &O);
Report runHuffmanMedia(const Options &O);
Report runCompiledSpec(const Options &O);
Report runSpecdOpen(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
