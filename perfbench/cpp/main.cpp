//===- perfbench/cpp/main.cpp - The benchmark's command line --------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--source-id ID]
///
/// Runs one workload on real threads for S seconds and checks every
/// output against an independent oracle. With `--trace 0` it reports the
/// end-to-end metrics (tracing off); with `--trace 1` the per-layer ones.
/// Output: a readable report, one `{"env": ...}` line (host, nproc, build,
/// compiler, source id, worker counts, the share of host CPU time stolen
/// by the hypervisor meanwhile, sample count of each metric), and
/// last the result line `{"correct", "attempted", "failed", "metrics"}`.
/// Exits 1 when any output was wrong or a check failed, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sched.h>
#include <string>
#include <unistd.h>

using namespace perfbench;

namespace {

struct MetricDecl {
  const char *Name;
  const char *Unit;
};

// Keep in step with BENCHMARK.json; run.py checks the two agree.
const MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},          {"run_ms_p50", "ms"},
    {"run_ms_p90", "ms"},      {"speedup", "x"},
    {"heap_mb", "MB"},         {"job_ms_p50", "ms"},
    {"job_ms_tail", "ms"},     {"max_rate_jobs_s", "1/s"},
};

// A workload that does not exercise a layer reports 0 for its metrics.
const MetricDecl kPerLayer[] = {
    {"workloads.gen_ms", "ms"},
    {"lexgen.seq_ms", "ms"},
    {"huffman.seq_ms", "ms"},
    {"apps.predictor_us", "us"},
    {"apps.segment_imbalance", "ratio"},
    {"runtime.attempts", "count"},
    {"runtime.useful_ratio", "ratio"},
    {"runtime.mispredict_pct", "%"},
    {"runtime.wasted_body_ms", "ms"},
    {"runtime.reexec_ms", "ms"},
    {"runtime.finalize_ms", "ms"},
    {"runtime.validate_wait_ms", "ms"},
    {"runtime.body_ms", "ms"},
    {"runtime.serial_pct", "%"},
    {"executor.dispatch_wait_us_p50", "us"},
    {"executor.idle_pct", "%"},
    {"executor.steals", "count"},
    {"executor.parks", "count"},
    {"executor.help_runs", "count"},
    {"executor.injection_pops", "count"},
    {"simsched.speedup", "x"},
    {"simsched.gap", "ratio"},
    {"lang.parse_ms", "ms"},
    {"analysis.check_ms", "ms"},
    {"compile.lower_ms", "ms"},
    {"interp.oracle_ms", "ms"},
    {"compile.lexing_ms", "ms"},
    {"compile.huffman_ms", "ms"},
    {"compile.mwis_ms", "ms"},
    {"compile.steps", "count"},
    {"compile.ns_per_step", "ns"},
    {"serving.submit_us_p50", "us"},
    {"serving.submit_us_p99", "us"},
    {"serving.server_ms_p50", "ms"},
    {"serving.server_ms_p99", "ms"},
    {"serving.lex_ms_p50", "ms"},
    {"serving.decode_ms_p50", "ms"},
    {"serving.mwis_ms_p50", "ms"},
    {"serving.spec_ms_p50", "ms"},
    {"serving.rejected", "count"},
    {"serving.retries", "count"},
    {"serving.tasks_per_job", "count"},
    {"serving.steals_per_job", "count"},
    {"serving.parks_per_job", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.dropped_events", "count"},
};

struct Workload {
  const char *Name;
  Report (*Run)(const Options &);
};

const Workload kWorkloads[] = {
    {"lex-java", runLexJava},
    {"huffman-media", runHuffmanMedia},
    {"compiled-spec", runCompiledSpec},
    {"specd-open", runSpecdOpen},
};

unsigned nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return unsigned(CPU_COUNT(&Set));
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? unsigned(N) : 1u;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--source-id ID]\nworkloads:",
               Why);
  for (const Workload &W : kWorkloads)
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string SourceId = "unknown";
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    char *EndP = nullptr;
    if (Flag == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(V, &EndP, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(V, &EndP);
    } else if (Flag == "--trace") {
      O.Trace = std::strtol(V, &EndP, 10) != 0;
    } else if (Flag == "--source-id") {
      SourceId = V;
    } else {
      return usage(("unknown option " + Flag).c_str());
    }
    if (EndP && *EndP)
      return usage(("bad value for " + Flag).c_str());
  }
  if (!HaveWorkload || !(O.Seconds > 0))
    return usage("--workload and a positive --seconds are required");
  const Workload *W = nullptr;
  for (const Workload &X : kWorkloads)
    if (O.Workload == X.Name)
      W = &X;
  if (!W)
    return usage(("unknown workload " + O.Workload).c_str());
  O.Cpus = nproc();
  O.Workers = std::max(1u, O.Cpus - 1);
  const CpuTicks Ticks0 = cpuTicks();
  Report R = W->Run(O);
  const CpuTicks Ticks1 = cpuTicks();
  // CPU time the hypervisor gave to other guests while this run was on.
  // Every timed sample is kept; a run on a contended host reads slower as
  // a whole, and run.py repeats and compare.py sets aside such runs.
  const double StealPct =
      Ticks1.Total > Ticks0.Total
          ? 100.0 * double(Ticks1.Steal - Ticks0.Steal) /
                double(Ticks1.Total - Ticks0.Total)
          : 0;

  // Every declared metric of the mode, and nothing else, in the result.
  std::vector<MetricDecl> Wanted;
  if (O.Trace)
    Wanted.assign(std::begin(kPerLayer), std::end(kPerLayer));
  else
    Wanted.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const MetricDecl &D : Wanted) {
    if (R.Metrics.count(D.Name))
      continue;
    if (O.Trace)
      R.set(D.Name, 0, D.Unit);
    else
      R.CheckErrors.push_back(std::string("no value for ") + D.Name);
  }

  const double FailPct =
      R.Attempted ? 100.0 * double(R.Failed) / double(R.Attempted) : 0;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", W->Name,
              static_cast<unsigned long long>(O.Seed), O.Seconds,
              O.Trace ? 1 : 0);
  for (const MetricDecl &D : Wanted) {
    const Report::Metric &M = R.Metrics[D.Name];
    std::printf("  %-32s %14.4f %-6s n=%zu\n", D.Name, M.Value, M.Unit.c_str(),
                M.N);
  }
  std::printf("  %-32s %14.4f %-6s n=%lld\n", "fail_pct", FailPct, "%",
              static_cast<long long>(R.Attempted));
  std::printf("  %-32s %14.4f %-6s (host CPU time stolen during the run)\n",
              "steal_pct", StealPct, "%");
  for (const std::string &N : R.Notes)
    std::printf("  %s\n", N.c_str());
  for (const std::string &E : R.CheckErrors)
    std::printf("  CHECK FAILED: %s\n", E.c_str());

  char Host[256] = "unknown";
  gethostname(Host, sizeof(Host) - 1);
  std::string Env = "{\"env\": {\"host\": " + jsonString(Host) +
                    ", \"nproc\": " + std::to_string(O.Cpus) +
                    ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + jsonString(__VERSION__) +
                    ", \"source_id\": " + jsonString(SourceId) +
                    ", \"workload\": " + jsonString(W->Name) +
                    ", \"seed\": " + std::to_string(O.Seed) +
                    ", \"seconds\": " + number(O.Seconds) +
                    ", \"trace\": " + (O.Trace ? "1" : "0") +
                    ", \"workers\": {";
  bool First = true;
  for (const auto &[Role, N] : R.WorkerCounts) {
    Env += (First ? "" : ", ") + jsonString(Role) + ": " + std::to_string(N);
    First = false;
  }
  Env += "}, \"fail_pct\": " + number(FailPct) +
         ", \"steal_pct\": " + number(StealPct) + "}, \"samples\": {";
  First = true;
  for (const MetricDecl &D : Wanted) {
    Env += (First ? "" : ", ") + jsonString(D.Name) + ": " +
           std::to_string(R.Metrics[D.Name].N);
    First = false;
  }
  std::printf("%s}}\n", Env.c_str());

  const bool Correct =
      R.Failed == 0 && R.CheckErrors.empty() && R.Attempted > 0;
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"metrics\": {";
  First = true;
  for (const MetricDecl &D : Wanted) {
    const Report::Metric &M = R.Metrics[D.Name];
    Out += (First ? "" : ", ") + jsonString(D.Name) +
           ": {\"value\": " + number(M.Value) +
           ", \"unit\": " + jsonString(M.Unit) + "}";
    First = false;
  }
  std::printf("%s}}\n", Out.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
