//===- perfbench/cpp/SpecdWorkload.cpp - specd-open -----------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `specd-open`: many small concurrent runs on shared shards. One
/// `ServerContext` (2 shards of nproc/2 - 1 workers besides the shard's
/// dispatcher thread, catalog scale 65536) and one tenant, driven with
/// bench/serving_load's lex/decode/mwis/spec mix. First one job at a time
/// on the idle server (closed loop), each app job paired with its
/// sequential kernel: the run time and the speed-up. Then one generator
/// thread submits jobs with Poisson arrivals (an open loop) at a fixed
/// nominal rate; each job's latency is timed from when it was due, so a
/// stall also charges the jobs queued behind it. Last the saturated
/// server, with jobs always queued on every shard: its capacity. The
/// catalog's datasets are the server's own; the seed draws the arrival
/// times and the order of the kinds.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/SpeculativeLexing.h"
#include "mwis/Mwis.h"
#include "serving/ServerContext.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <random>
#include <thread>

using namespace specpar;
using namespace specpar::serving;

namespace perfbench {
namespace {

constexpr int64_t kScale = 65536;
/// The nominal arrival rate, fixed so that a change is measured at the
/// load its parent was: an eighth to a fifth of the max_rate_jobs_s
/// measured on the 4-vCPU reference host (270-410 jobs/s, with the host
/// calm or not). A shard runs one job at a time and a spec job takes ~20
/// times as long as the others, so near half the capacity a small job's
/// latency flips between one that found a shard free and one queued
/// behind a spec job; at a fifth it stays with the former.
constexpr double kNominalRate = 50;
/// The tail percentile of job latency: the highest with more than ten
/// jobs beyond it at the nominal rate (about 600 jobs at 20 s runs). A
/// higher one rests on the few slowest jobs, which a stolen vCPU alone
/// could move.
constexpr double kTailPct = 97.5;
/// Jobs kept outstanding per shard while the server's capacity is
/// measured: enough that a shard finishing a job always finds another
/// queued.
constexpr unsigned kSaturationDepth = 4;
/// Shares of a run's seconds: the idle server, then the nominal rate; the
/// rest is the saturated server.
constexpr double kIdleShare = 0.2, kNominalShare = 0.6;
/// Jobs sent to the traced tenant in a traced run; its tracer keeps
/// 2^14 events per thread, which this many jobs stay well inside. Spec
/// jobs (thousands of attempts each) would overflow it and are not traced.
constexpr int kTracedJobs = 300;

/// The job mix is bench/serving_load's: lex, decode, mwis and spec jobs
/// 1:1:1:1. Every block of 4 consecutive jobs holds one of each kind, in
/// a seeded order, so the mix does not vary between runs.
const JobKind kKinds[] = {JobKind::Lex, JobKind::Decode, JobKind::Mwis,
                          JobKind::Spec};

struct SentJob {
  JobKind Kind = JobKind::Lex;
  bool Traced = false;
  /// Sent while traced and untraced jobs alternate.
  bool InTraceWindow = false;
  Clock::time_point Due, SubmitStart, SubmitEnd;
  std::future<JobResult> Result;
};

/// One phase at one arrival rate, with its jobs resolved.
struct Phase {
  double Rate = 0;
  Samples JobMs, ServerMs, SubmitUs, LateMs, KindMs[4], KindJobMs[4];
  /// Server latency of jobs other than spec ones (which the traced tenant
  /// never receives) sent while traced and untraced jobs alternate,
  /// untraced and traced: the tracing overhead pair.
  Samples AppServerMs, TracedServerMs;
  int64_t Rejected = 0;
  /// Untraced jobs' speculative tasks and executor activity, summed.
  int64_t Tasks = 0;
  rt::ExecutorStats Exec;
  int64_t Mispredictions = 0, Predictions = 0;
  std::vector<RunSpan> TracedSpans;
};

/// The geometric mean over the four job kinds of each kind's \p P-th
/// percentile in \p PerKind.
double geoMeanPct(const Samples (&PerKind)[4], double P) {
  double LogSum = 0;
  for (const Samples &S : PerKind)
    LogSum += std::log(S.pct(P));
  return std::exp(LogSum / 4);
}

/// Drives \p Ctx for \p Seconds at \p Rate jobs/s. When \p TraceEveryOther,
/// every other job (up to kTracedJobs) goes to the traced tenant.
Phase runPhase(ServerContext &Ctx, Report &R, std::mt19937_64 &Rng,
               double Rate, double Seconds, bool TraceEveryOther,
               Samples *GenMs) {
  Phase P;
  P.Rate = Rate;
  Clock::time_point G0 = Clock::now();
  std::exponential_distribution<double> Gap(Rate);
  std::vector<JobKind> Block(std::begin(kKinds), std::end(kKinds));
  std::vector<SentJob> Jobs;
  for (double T = Gap(Rng); T < Seconds; T += Gap(Rng)) {
    if (Jobs.size() % Block.size() == 0)
      std::shuffle(Block.begin(), Block.end(), Rng);
    SentJob J;
    J.Kind = Block[Jobs.size() % Block.size()];
    J.Due = Clock::time_point() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(T));
    Jobs.push_back(std::move(J));
  }
  if (GenMs)
    GenMs->add(msSince(G0));

  int Traced = 0;
  const Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < Jobs.size(); ++I) {
    SentJob &J = Jobs[I];
    J.Due = Start + J.Due.time_since_epoch();
    std::this_thread::sleep_until(J.Due);
    J.InTraceWindow = TraceEveryOther && Traced < kTracedJobs;
    J.Traced = J.InTraceWindow && I % 2 == 1 && J.Kind != JobKind::Spec;
    Traced += J.Traced;
    J.SubmitStart = Clock::now();
    J.Result = Ctx.submit(J.Traced ? "traced" : "plain", Job{J.Kind, nullptr});
    J.SubmitEnd = Clock::now();
  }

  for (size_t I = 0; I < Jobs.size(); ++I) {
    SentJob &J = Jobs[I];
    const JobResult Res = J.Result.get();
    ++R.Attempted;
    if (Res.Outcome != JobOutcome::Ok) {
      P.Rejected += Res.Outcome == JobOutcome::Rejected;
      R.fail(std::string(jobKindName(J.Kind)) + " job " +
             jobOutcomeName(Res.Outcome) + ": " + Res.Error);
      continue;
    }
    const double ServerMs =
        std::chrono::duration<double, std::milli>(Res.Latency).count();
    const double LateMs =
        std::chrono::duration<double, std::milli>(J.SubmitStart - J.Due)
            .count();
    // Enqueue happens inside submit, so due -> submit return -> + server
    // latency bounds the completion from above by the submit's tail.
    const double JobMs =
        std::chrono::duration<double, std::milli>(J.SubmitEnd - J.Due)
            .count() +
        ServerMs;
    P.LateMs.add(LateMs);
    if (J.Traced) {
      P.TracedServerMs.add(ServerMs);
      RunSpan S;
      S.JobId = Res.TraceId;
      P.TracedSpans.push_back(S);
      P.Mispredictions += Res.Stats.Spec.Mispredictions;
      P.Predictions += Res.Stats.Spec.Predictions;
      continue;
    }
    P.JobMs.add(JobMs);
    P.ServerMs.add(ServerMs);
    P.SubmitUs.add(std::chrono::duration<double, std::micro>(J.SubmitEnd -
                                                              J.SubmitStart)
                       .count());
    P.KindMs[static_cast<int>(J.Kind)].add(ServerMs);
    P.KindJobMs[static_cast<int>(J.Kind)].add(JobMs);
    if (J.InTraceWindow && J.Kind != JobKind::Spec)
      P.AppServerMs.add(ServerMs);
    P.Exec += Res.Stats.Exec;
    P.Tasks += Res.Stats.Spec.Tasks;
  }
  return P;
}

/// The idle server: one job at a time, in blocks of the four kinds in a
/// seeded order. Each app job is paired with a call of its sequential
/// kernel on the catalog's data, the side that goes first alternating
/// between blocks (spec jobs have no sequential kernel of their own).
struct IdlePhase {
  /// Per kind, submit to result, as the client sees it.
  Samples KindMs[4];
  /// A round: one job of each kind, one after another, the sum of their
  /// times.
  Samples RoundMs;
  /// Per app kind, the sequential kernel.
  Samples SeqMs[3];
  /// Heap in use when a job has returned.
  Samples HeapMb;
  size_t Jobs = 0;
};

IdlePhase runIdle(ServerContext &Ctx, Report &R, std::mt19937_64 &Rng,
                  double Seconds) {
  IdlePhase P;
  const WorkloadCatalog &Cat = Ctx.catalog();
  // Whether the kernel's output matched the catalog's oracle.
  auto Sequential = [&Cat](JobKind K) {
    switch (K) {
    case JobKind::Lex:
      return int64_t(apps::sequentialLex(Cat.Lex, Cat.Text).size()) ==
             Cat.LexOracleTokens;
    case JobKind::Decode:
      return Cat.Dec.decodeAll(Cat.Bits, Cat.Enc.NumSymbols) == Cat.HuffOracle;
    default:
      return mwis::solveSequential(Cat.Weights, nullptr) ==
             Cat.MwisOracleWeight;
    }
  };
  std::vector<JobKind> Block(std::begin(kKinds), std::end(kKinds));
  const Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  for (int B = 0; Clock::now() < End; ++B) {
    std::shuffle(Block.begin(), Block.end(), Rng);
    double RoundMs = 0;
    bool RoundOk = true;
    for (JobKind K : Block) {
      const int Kind = static_cast<int>(K);
      for (int Side = 0; Side < 2; ++Side) {
        ++R.Attempted;
        Clock::time_point T0 = Clock::now();
        if ((Side == 0) == (B % 2 == 0)) {
          if (K == JobKind::Spec) {
            --R.Attempted;
            continue;
          }
          const bool Ok = Sequential(K);
          P.SeqMs[Kind].add(msSince(T0));
          if (!Ok)
            R.fail(std::string("sequential ") + jobKindName(K) +
                   " differs from the oracle");
          continue;
        }
        const JobResult Res = Ctx.submit("plain", Job{K, nullptr}).get();
        const double Ms = msSince(T0);
        P.HeapMb.add(heapInUseMb());
        ++P.Jobs;
        RoundMs += Ms;
        if (Res.Outcome != JobOutcome::Ok) {
          RoundOk = false;
          R.fail(std::string(jobKindName(K)) + " job " +
                 jobOutcomeName(Res.Outcome) + ": " + Res.Error);
        } else {
          P.KindMs[Kind].add(Ms);
        }
      }
    }
    if (RoundOk)
      P.RoundMs.add(RoundMs);
  }
  return P;
}

/// The saturated server: kSaturationDepth jobs per shard outstanding at
/// all times, in blocks of the four kinds in a seeded order, for \p
/// Seconds. Its throughput is the server's capacity, averaged over
/// every job of the phase.
struct Saturated {
  double JobsPerS = 0;
  /// Submit to result of the jobs completed in the phase.
  Samples JobMs;
};

Saturated runSaturated(ServerContext &Ctx, Report &R, std::mt19937_64 &Rng,
                       unsigned Shards, double Seconds) {
  std::vector<JobKind> Block(std::begin(kKinds), std::end(kKinds));
  size_t Sent = 0;
  struct Open {
    JobKind Kind;
    Clock::time_point Submitted;
    std::future<JobResult> Result;
  };
  auto Submit = [&] {
    if (Sent % Block.size() == 0)
      std::shuffle(Block.begin(), Block.end(), Rng);
    const JobKind K = Block[Sent++ % Block.size()];
    const Clock::time_point T0 = Clock::now();
    return Open{K, T0, Ctx.submit("plain", Job{K, nullptr})};
  };
  Saturated S;
  std::vector<Open> InFlight;
  const Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  for (unsigned I = 0; I < kSaturationDepth * Shards; ++I)
    InFlight.push_back(Submit());
  int64_t Done = 0;
  while (!InFlight.empty()) {
    const bool Running = Clock::now() < End;
    bool Any = false;
    for (size_t I = 0; I < InFlight.size();) {
      Open &J = InFlight[I];
      if (J.Result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++I;
        continue;
      }
      Any = true;
      const JobResult Res = J.Result.get();
      ++R.Attempted;
      if (Res.Outcome != JobOutcome::Ok) {
        R.fail(std::string(jobKindName(J.Kind)) + " job " +
               jobOutcomeName(Res.Outcome) + ": " + Res.Error);
      } else if (Running) {
        ++Done;
        S.JobMs.add(msSince(J.Submitted));
      }
      if (Running) {
        J = Submit();
        ++I;
      } else {
        InFlight.erase(InFlight.begin() + std::ptrdiff_t(I));
      }
    }
    // The shortest job takes ~0.5 ms and every shard has jobs queued, so
    // polling this often leaves no shard idle.
    if (!Any)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  S.JobsPerS = double(Done) / Seconds;
  return S;
}

} // namespace

Report runSpecdOpen(const Options &O) {
  Report R;
  // A shard's dispatcher thread runs its jobs (and validates them), so
  // dispatchers and workers together number nproc.
  const unsigned PerShard = O.Cpus > 3 ? (O.Cpus - 2) / 2 : 1;
  R.WorkerCounts["shards"] = 2;
  R.WorkerCounts["workers_per_shard"] = PerShard;
  std::mt19937_64 Rng(O.Seed);
  std::unique_ptr<ServerContext> Ctx;

  // Set-up: the server (catalog generation, spec-program compile and
  // oracles), the tenants, and warm-up.
  double SetupS = timedSetups(kSetupRepeats, [&] {
    Ctx.reset();
    ServerOptions SO;
    SO.NumShards = 2;
    SO.ThreadsPerShard = PerShard;
    SO.QueueCapacity = 4096;
    SO.WorkloadScale = kScale;
    Ctx = std::make_unique<ServerContext>(SO);
    TenantPolicy Plain;
    Plain.Name = "plain";
    Ctx->registerTenant(Plain);
    if (O.Trace) {
      TenantPolicy Traced = Plain;
      Traced.Name = "traced";
      Traced.Trace = true;
      Ctx->registerTenant(Traced);
    }
    // A pass runs each kind of job once, on both shards.
    for (int Pass = 0; Pass < 4 * kWarmPasses; ++Pass) {
      std::vector<std::future<JobResult>> F;
      for (JobKind K : kKinds)
        F.push_back(Ctx->submit("plain", Job{K, nullptr}));
      for (std::future<JobResult> &X : F) {
        ++R.Attempted;
        if (X.get().Outcome != JobOutcome::Ok)
          R.fail("warm-up job failed");
      }
    }
  });

  const IdlePhase Idle = runIdle(*Ctx, R, Rng, kIdleShare * O.Seconds);
  Samples GenMs;
  if (O.Trace) {
    Phase P = runPhase(*Ctx, R, Rng, kNominalRate,
                       (1 - kIdleShare) * O.Seconds, true, &GenMs);
    Ctx->drain();
    TenantState *TS = Ctx->tenant("traced");
    RuntimeTotals RT;
    accumulateRuntime(TS->Trace->snapshot(), P.TracedSpans, RT);
    reportRuntimeLayers(R, RT, P.Exec, int64_t(P.ServerMs.size()),
                        P.Mispredictions, P.Predictions, P.AppServerMs,
                        P.TracedServerMs, TS->Trace->droppedEvents(),
                        PerShard + 1);
    R.set("workloads.gen_ms", GenMs.median(), "ms", GenMs.size());
    R.set("lexgen.seq_ms", Idle.SeqMs[0].median(), "ms", Idle.SeqMs[0].size());
    R.set("huffman.seq_ms", Idle.SeqMs[1].median(), "ms",
          Idle.SeqMs[1].size());
    R.set("serving.submit_us_p50", P.SubmitUs.median(), "us",
          P.SubmitUs.size());
    R.set("serving.submit_us_p99", P.SubmitUs.pct(99), "us",
          P.SubmitUs.size());
    R.set("serving.server_ms_p50", P.ServerMs.median(), "ms",
          P.ServerMs.size());
    R.set("serving.server_ms_p99", P.ServerMs.pct(99), "ms",
          P.ServerMs.size());
    const char *KindNames[] = {"lex", "decode", "mwis", "spec"};
    for (int K = 0; K < 4; ++K)
      R.set(std::string("serving.") + KindNames[K] + "_ms_p50",
            P.KindMs[K].median(), "ms", P.KindMs[K].size());
    R.set("serving.rejected", double(P.Rejected), "count");
    uint64_t Retries = 0;
    for (const char *T : {"plain", "traced"})
      Retries += Ctx->tenant(T)->Retries.load();
    R.set("serving.retries", double(Retries), "count");
    const size_t N = P.ServerMs.size();
    const double PerJob = 1.0 / double(std::max<size_t>(N, 1));
    R.set("serving.tasks_per_job", double(P.Tasks) * PerJob, "count", N);
    R.set("serving.steals_per_job", double(P.Exec.Steals) * PerJob, "count",
          N);
    R.set("serving.parks_per_job", double(P.Exec.EventcountParks) * PerJob,
          "count", N);
    R.set("loadgen.late_ms_p99", P.LateMs.pct(99), "ms", P.LateMs.size());
    return R;
  }

  // The nominal rate, then the saturated server.
  const double NominalS = kNominalShare * O.Seconds;
  Phase Nominal = runPhase(*Ctx, R, Rng, kNominalRate, NominalS, false,
                           &GenMs);
  const Saturated Sat =
      runSaturated(*Ctx, R, Rng, 2, (1 - kIdleShare - kNominalShare) *
                                        O.Seconds);

  R.set("setup_s", SetupS, "s", kSetupRepeats);
  // A run is a round of the four kinds on the idle server, as a round of
  // the three programs is for compiled-spec. Percentiles of single
  // sub-millisecond jobs follow the host: a vCPU the hypervisor takes
  // away for a few milliseconds triples them, and with 8-16% steal the
  // per-kind p90 moved by 90% between runs.
  R.set("run_ms_p50", Idle.RoundMs.median(), "ms", Idle.RoundMs.size());
  R.set("run_ms_p90", Idle.RoundMs.pct(90), "ms", Idle.RoundMs.size());
  double SeqSum = 0, RunSum = 0;
  for (int K = 0; K < 3; ++K) {
    SeqSum += Idle.SeqMs[K].median();
    RunSum += Idle.KindMs[K].median();
  }
  R.set("speedup", SeqSum / RunSum, "x", Idle.KindMs[0].size());
  // The geometric mean over the four kinds of each kind's p50, so that
  // every kind weighs alike however far apart their times are: pooled,
  // the p50 would fall between the lex and the decode jobs (0.9 and 2 ms)
  // and flip from run to run.
  R.set("job_ms_p50", geoMeanPct(Nominal.KindJobMs, 50), "ms",
        Nominal.JobMs.size());
  // Pooled: the tail is where the slowest jobs of any kind are.
  R.setJobTail(Nominal.JobMs, kTailPct);
  R.set("max_rate_jobs_s", Sat.JobsPerS, "1/s", Sat.JobMs.size());
  R.set("heap_mb", Idle.HeapMb.mean(), "MB", Idle.HeapMb.size());
  for (int K = 0; K < 4; ++K) {
    char L[160];
    const Samples &S = Nominal.KindJobMs[K];
    std::snprintf(L, sizeof(L),
                  "%s jobs: idle p50 %.3f p90 %.3f ms; nominal p50 %.3f "
                  "p90 %.3f p97.5 %.3f ms (n=%zu)",
                  jobKindName(kKinds[K]), Idle.KindMs[K].pct(50),
                  Idle.KindMs[K].pct(90), S.pct(50), S.pct(90), S.pct(97.5),
                  S.size());
    R.note(L);
  }
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "nominal %.0f jobs/s over %.1f s: generator late p99 %.3f ms",
                kNominalRate, NominalS, Nominal.LateMs.pct(99));
  R.note(Line);
  std::snprintf(Line, sizeof(Line),
                "saturated, %u jobs outstanding per shard: %.1f jobs/s, "
                "submit to result p50 %.2f p97.5 %.2f ms",
                kSaturationDepth, Sat.JobsPerS, Sat.JobMs.pct(50),
                Sat.JobMs.pct(97.5));
  R.note(Line);
  return R;
}

} // namespace perfbench
