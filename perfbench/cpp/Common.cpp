//===- perfbench/cpp/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <malloc.h>
#include <unordered_map>
#include <unordered_set>

using namespace specpar;

namespace perfbench {

double Samples::pct(double P) const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(S.size())));
  Rank = std::clamp<size_t>(Rank, 1, S.size());
  return S[Rank - 1];
}

double Samples::mean() const {
  if (V.empty())
    return 0;
  return std::accumulate(V.begin(), V.end(), 0.0) / double(V.size());
}

CpuTicks cpuTicks() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return {};
  unsigned long long V[8] = {};
  int N = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                      &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  if (N != 8)
    return {};
  CpuTicks T;
  for (unsigned long long X : V)
    T.Total += X;
  T.Steal = V[7];
  return T;
}

double timedSetups(int Times, const std::function<void()> &Setup) {
  Samples S;
  for (int I = 0; I < Times; ++I) {
    Clock::time_point T0 = Clock::now();
    Setup();
    S.add(msSince(T0) / 1000.0);
  }
  return S.median();
}

void Report::fail(const std::string &Why) {
  ++Failed;
  // Keep the log short when a defect repeats on every run.
  if (Failed <= 5)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
}

void Report::setJobTail(const Samples &JobMs, double P) {
  set("job_ms_tail", JobMs.pct(P), "ms", JobMs.size());
  char Line[96];
  std::snprintf(Line, sizeof(Line), "job_ms_tail is the p%g of %zu jobs", P,
                JobMs.size());
  note(Line);
}

double heapInUseMb() {
  const struct mallinfo2 M = mallinfo2();
  return double(M.uordblks + M.hblkhd) / (1024.0 * 1024.0);
}

namespace {

double nsToMs(int64_t Ns) { return double(std::max<int64_t>(Ns, 0)) / 1e6; }

int64_t diff(uint64_t A, uint64_t B) {
  return static_cast<int64_t>(A) - static_cast<int64_t>(B);
}

struct AttemptTimes {
  uint64_t Dispatch = 0, Start = 0, Finish = 0;
  bool HasDispatch = false, HasStart = false, HasFinish = false;
};

/// One run's events, in Seq order. \p Windowed: [StartNs, EndNs] is the
/// run's wall time measured outside, so the part the events do not span
/// can be reconciled.
void accumulateRun(const std::vector<const rt::SpecEvent *> &Ev,
                   uint64_t StartNs, uint64_t EndNs, bool Windowed,
                   RuntimeTotals &Out) {
  using K = rt::SpecEventKind;
  ++Out.Runs;
  Out.WallMs += nsToMs(diff(EndNs, StartNs));
  if (Ev.empty()) {
    if (Windowed) {
      Out.ReconciledWallMs += nsToMs(diff(EndNs, StartNs));
      Out.UnspannedMs += nsToMs(diff(EndNs, StartNs));
    }
    return;
  }
  std::unordered_map<uint64_t, AttemptTimes> Attempts;
  std::unordered_set<uint64_t> AcceptedIds;
  // The validator walks its slots in order: [Mispredict] then
  // ValidateAccept or Reexecute, then Finalize once the slot's finalizer
  // has run. Everything else between the run's first and last event is
  // the validator waiting: for attempts, while dispatching the next wave,
  // and for cancelled stragglers to drain at the end.
  const uint64_t First = Ev.front()->TimeNs;
  uint64_t Prev = First, Last = First, Mark = 0;
  enum { None, Accept, Reexec } Mode = None;
  for (const rt::SpecEvent *E : Ev) {
    Last = std::max(Last, E->TimeNs);
    AttemptTimes &A = Attempts[E->AttemptId];
    switch (E->Kind) {
    case K::Dispatch:
      ++Out.Attempts;
      A.Dispatch = E->TimeNs;
      A.HasDispatch = true;
      break;
    case K::Start:
      A.Start = E->TimeNs;
      A.HasStart = true;
      break;
    case K::Finish:
      A.Finish = E->TimeNs;
      A.HasFinish = true;
      break;
    case K::Mispredict:
      Out.ValidateWaitMs += nsToMs(diff(E->TimeNs, Prev));
      Prev = std::max(Prev, E->TimeNs);
      break;
    case K::ValidateAccept:
      ++Out.Accepted;
      AcceptedIds.insert(E->AttemptId);
      Out.ValidateWaitMs += nsToMs(diff(E->TimeNs, Prev));
      Mark = E->TimeNs;
      Mode = Accept;
      break;
    case K::Reexecute:
      Out.ValidateWaitMs += nsToMs(diff(E->TimeNs, Prev));
      Mark = E->TimeNs;
      Mode = Reexec;
      break;
    case K::Finalize:
      if (Mode == Accept)
        Out.FinalizeMs += nsToMs(diff(E->TimeNs, Mark));
      else if (Mode == Reexec)
        Out.ReexecMs += nsToMs(diff(E->TimeNs, Mark));
      else // a degraded segment: executed in order by the validator
        Out.ReexecMs += nsToMs(diff(E->TimeNs, Prev));
      Prev = std::max(Prev, E->TimeNs);
      Mode = None;
      break;
    default:
      break;
    }
  }
  Out.ValidateWaitMs += nsToMs(diff(Last, Prev));
  if (Windowed) {
    Out.ReconciledWallMs += nsToMs(diff(EndNs, StartNs));
    Out.UnspannedMs +=
        nsToMs(diff(EndNs, StartNs)) - nsToMs(diff(Last, First));
  }
  Attempts.erase(0); // validator-side events carry no attempt
  for (const auto &[Id, A] : Attempts) {
    if (A.HasDispatch && A.HasStart)
      Out.DispatchWaitUs.add(double(diff(A.Start, A.Dispatch)) / 1e3);
    if (A.HasStart && A.HasFinish) {
      double Ms = nsToMs(diff(A.Finish, A.Start));
      Out.BodyMs += Ms;
      if (!AcceptedIds.count(Id))
        Out.WastedBodyMs += Ms;
    }
  }
}

} // namespace

void accumulateRuntime(const std::vector<rt::SpecEvent> &Events,
                       const std::vector<RunSpan> &Spans, RuntimeTotals &Out) {
  std::vector<std::vector<const rt::SpecEvent *>> PerRun(Spans.size());
  std::unordered_map<uint64_t, size_t> ByJob;
  std::vector<size_t> Windows; // unstamped spans, by start time
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (Spans[I].JobId)
      ByJob[Spans[I].JobId] = I;
    else
      Windows.push_back(I);
  }
  std::sort(Windows.begin(), Windows.end(), [&](size_t A, size_t B) {
    return Spans[A].StartNs < Spans[B].StartNs;
  });
  for (const rt::SpecEvent &E : Events) {
    if (E.JobId) {
      auto It = ByJob.find(E.JobId);
      if (It != ByJob.end())
        PerRun[It->second].push_back(&E);
      continue;
    }
    auto It = std::upper_bound(
        Windows.begin(), Windows.end(), E.TimeNs,
        [&](uint64_t T, size_t S) { return T < Spans[S].StartNs; });
    if (It == Windows.begin())
      continue;
    const RunSpan &S = Spans[*(It - 1)];
    if (E.TimeNs <= S.EndNs)
      PerRun[*(It - 1)].push_back(&E);
  }
  for (size_t I = 0; I < Spans.size(); ++I) {
    const bool Windowed = !Spans[I].JobId && !Spans[I].TrimToEvents;
    uint64_t Start = Spans[I].StartNs, End = Spans[I].EndNs;
    if (!Windowed && !PerRun[I].empty()) {
      Start = PerRun[I].front()->TimeNs;
      End = PerRun[I].back()->TimeNs;
    }
    accumulateRun(PerRun[I], Start, End, Windowed, Out);
  }
}

void reportRuntimeLayers(Report &R, const RuntimeTotals &RT,
                         const rt::ExecutorStats &Exec, int64_t ExecRuns,
                         int64_t Mispredictions, int64_t Predictions,
                         const Samples &PlainMs, const Samples &TracedMs,
                         uint64_t DroppedEvents, unsigned Threads) {
  const double Runs = double(std::max<int64_t>(RT.Runs, 1));
  const double PerExec = double(std::max<int64_t>(ExecRuns, 1));
  const size_t N = size_t(RT.Runs);
  R.set("runtime.attempts", double(RT.Attempts) / Runs, "count", N);
  R.set("runtime.useful_ratio",
        RT.Attempts ? double(RT.Accepted) / double(RT.Attempts) : 0, "ratio",
        N);
  R.set("runtime.mispredict_pct",
        Predictions ? 100.0 * double(Mispredictions) / double(Predictions) : 0,
        "%", N);
  R.set("runtime.wasted_body_ms", RT.WastedBodyMs / Runs, "ms", N);
  R.set("runtime.reexec_ms", RT.ReexecMs / Runs, "ms", N);
  R.set("runtime.finalize_ms", RT.FinalizeMs / Runs, "ms", N);
  R.set("runtime.validate_wait_ms", RT.ValidateWaitMs / Runs, "ms", N);
  R.set("runtime.body_ms", RT.BodyMs / Runs, "ms", N);
  R.set("runtime.serial_pct",
        RT.WallMs > 0 ? 100.0 * (RT.ReexecMs + RT.FinalizeMs) / RT.WallMs : 0,
        "%", N);
  R.set("executor.dispatch_wait_us_p50", RT.DispatchWaitUs.median(), "us",
        RT.DispatchWaitUs.size());
  R.set("executor.idle_pct",
        RT.WallMs > 0
            ? std::max(0.0, 100.0 * (1.0 - RT.BodyMs /
                                               (double(Threads) * RT.WallMs)))
            : 0,
        "%", N);
  R.set("executor.steals", double(Exec.Steals) / PerExec, "count",
        size_t(ExecRuns));
  R.set("executor.parks", double(Exec.EventcountParks) / PerExec, "count",
        size_t(ExecRuns));
  R.set("executor.help_runs", double(Exec.HelpRuns) / PerExec, "count",
        size_t(ExecRuns));
  R.set("executor.injection_pops", double(Exec.InjectionPops) / PerExec,
        "count", size_t(ExecRuns));
  R.set("trace.overhead_pct",
        PlainMs.empty() || TracedMs.empty()
            ? 0
            : 100.0 * (TracedMs.median() / PlainMs.median() - 1.0),
        "%", std::min(PlainMs.size(), TracedMs.size()));
  R.set("trace.dropped_events", double(DroppedEvents), "count");

  if (DroppedEvents > 0)
    R.CheckErrors.push_back("the tracer dropped " +
                            std::to_string(DroppedEvents) + " events");
  if (RT.ReconciledWallMs == 0) {
    R.note("reconcile: not applicable (no wall time measured around the "
           "speculative region alone)");
    return;
  }
  // The trace must account for the runs: the validator's wait,
  // re-execution and finalize span each run's events, and the wall time
  // outside that span (before the first event, after the last) must stay
  // within the tolerance.
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "reconcile: validator wait %.2f + re-execution %.2f + "
                "finalize %.2f ms; %.2f of %.2f ms wall outside the traced "
                "span (%.1f%%, tolerance %.0f%%)",
                RT.ValidateWaitMs, RT.ReexecMs, RT.FinalizeMs, RT.UnspannedMs,
                RT.ReconciledWallMs,
                100.0 * RT.UnspannedMs / RT.ReconciledWallMs,
                100 * kReconcileTolerance);
  R.note(Line);
  if (RT.UnspannedMs > kReconcileTolerance * RT.ReconciledWallMs)
    R.CheckErrors.push_back(std::string("trace does not reconcile with wall "
                                        "time: ") +
                            Line);
}

} // namespace perfbench
