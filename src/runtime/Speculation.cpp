//===- runtime/Speculation.cpp - Programmable value speculation -----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Speculation.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace specpar;
using namespace specpar::rt;

detail::CancelContext &detail::cancelContext() {
  static thread_local CancelContext Context;
  return Context;
}

bool specpar::rt::currentTaskCancelled() {
  detail::CancelContext &C = detail::cancelContext();
  bool Cancelled = false;
  if (const std::atomic<bool> *Flag = C.Flag)
    Cancelled = Flag->load(std::memory_order_relaxed);
  // Deadline expiry is only checked when one is armed: the common path
  // stays a thread-local load plus an atomic load, no clock read.
  if (!Cancelled &&
      C.Deadline != std::chrono::steady_clock::time_point::max())
    Cancelled = std::chrono::steady_clock::now() >= C.Deadline;
  if (Cancelled)
    // Record that this attempt *observed* cancellation: it may now bail
    // with a partial value, so the validator must never accept it.
    if (std::atomic<bool> *Observed = C.Observed)
      Observed->store(true, std::memory_order_relaxed);
  return Cancelled;
}

std::string SpeculationStats::str() const {
  std::string Out = formatString(
      "tasks=%lld predictions=%lld mispredictions=%lld reexecutions=%lld",
      static_cast<long long>(Tasks), static_cast<long long>(Predictions),
      static_cast<long long>(Mispredictions),
      static_cast<long long>(Reexecutions));
  if (FailedPredictions)
    Out += formatString(" failed-predictions=%lld",
                        static_cast<long long>(FailedPredictions));
  if (DegradedChunks)
    Out += formatString(" degraded-chunks=%lld",
                        static_cast<long long>(DegradedChunks));
  if (ProfileSeeds)
    Out += formatString(" profile-seeds=%lld",
                        static_cast<long long>(ProfileSeeds));
  if (PredictorSwitches)
    Out += formatString(" predictor-switches=%lld",
                        static_cast<long long>(PredictorSwitches));
  if (ContainedCrashes)
    Out += formatString(" contained-crashes=%lld",
                        static_cast<long long>(ContainedCrashes));
  if (RunawayCancels)
    Out += formatString(" runaway-cancels=%lld",
                        static_cast<long long>(RunawayCancels));
  if (FinalChunk)
    Out += formatString(" final-chunk=%lld",
                        static_cast<long long>(FinalChunk));
  return Out;
}

//===----------------------------------------------------------------------===//
// The iterate engine's T-independent policies
//===----------------------------------------------------------------------===//

detail::BadRateWindow::BadRateWindow(const SpecConfig &Cfg)
    : Thresh(Cfg.degradeThreshold()),
      Buf(static_cast<size_t>(
              Cfg.degradeThreshold() >= 0 ? Cfg.degradeWindow() : 0),
          0) {}

void detail::BadRateWindow::push(bool IsBad) {
  if (Count == static_cast<int>(Buf.size()))
    Bad -= Buf[static_cast<size_t>(Pos)];
  else
    ++Count;
  Buf[static_cast<size_t>(Pos)] = IsBad ? 1 : 0;
  Bad += IsBad ? 1 : 0;
  Pos = (Pos + 1) % static_cast<int>(Buf.size());
}

void detail::BadRateWindow::clear() {
  std::fill(Buf.begin(), Buf.end(), 0);
  Count = Pos = Bad = 0;
}

detail::ChunkTuner::ChunkTuner(const SpecConfig &Cfg, int64_t ChunkInit,
                               int64_t TargetNs, int64_t Span,
                               unsigned Workers)
    : Chunk(ChunkInit),
      // Never grow a chunk past the size that would leave fewer than two
      // segments per worker (no overlap left to speculate with), and
      // never below the caller's initial size as a ceiling.
      MaxChunk(std::max<int64_t>(
          1, std::max<int64_t>(
                 ChunkInit,
                 Span / std::max<int64_t>(1, 2 * static_cast<int64_t>(
                                                     Workers))))),
      TargetNs(TargetNs),
      BudgetAutoMult(Cfg.attemptBudget().count() > 0
                         ? 0.0
                         : Cfg.attemptBudgetAutoMult()),
      Measure(TargetNs > 0 || Cfg.attemptBudgetAutoMult() > 0) {
  BudgetNs.store(Cfg.attemptBudget().count(), std::memory_order_relaxed);
}

void detail::ChunkTuner::note(int64_t Ns, bool Boundary, bool IsBad) {
  WaveNs += Ns;
  ++WaveMeasured;
  if (Boundary) {
    ++WaveBoundaries;
    WaveBad += IsBad ? 1 : 0;
  }
}

void detail::ChunkTuner::endWave(Tracer *Tr, TraceContext Ctx) {
  if (WaveMeasured == 0)
    return;
  const double AvgNs = static_cast<double>(WaveNs) / WaveMeasured;
  // The auto attempt budget: an EWMA of per-segment latency, scaled by
  // the configured multiplier, with a 1 ms floor so scheduling noise on
  // tiny chunks can never trip the watchdog.
  if (BudgetAutoMult > 0) {
    BudgetEwmaNs = BudgetEwmaNs == 0
                       ? static_cast<int64_t>(AvgNs)
                       : (3 * BudgetEwmaNs + static_cast<int64_t>(AvgNs)) / 4;
    BudgetNs.store(std::max<int64_t>(
                       1000 * 1000, static_cast<int64_t>(
                                        BudgetAutoMult *
                                        static_cast<double>(BudgetEwmaNs))),
                   std::memory_order_relaxed);
  }
  // The chunk controller: halve the chunk when the wave mispredicted
  // badly (smaller chunks re-validate sooner) or when bodies overshoot
  // the target (lost parallelism); double it when bodies run far under
  // the target (per-attempt overhead dominating).
  if (TargetNs > 0) {
    const double BadRate =
        WaveBoundaries > 0 ? static_cast<double>(WaveBad) / WaveBoundaries
                           : 0.0;
    int64_t NewChunk = Chunk;
    if (BadRate > 0.5)
      NewChunk = Chunk / 2;
    else if (AvgNs < static_cast<double>(TargetNs) / 2)
      NewChunk = Chunk * 2;
    else if (AvgNs > static_cast<double>(TargetNs) * 2)
      NewChunk = Chunk / 2;
    NewChunk = std::max<int64_t>(1, std::min(NewChunk, MaxChunk));
    if (NewChunk != Chunk) {
      Chunk = NewChunk;
      // The event's index is the *new* chunk size, so a trace shows the
      // size trajectory; a run-level decision, so no attempt id.
      if (Tr)
        Tr->record(SpecEventKind::Autotune, Chunk, 0, Ctx);
    }
  }
  WaveNs = WaveMeasured = WaveBad = WaveBoundaries = 0;
}

int64_t detail::ChunkTuner::seed(int64_t Profiled) {
  if (Profiled <= 0)
    return 0;
  Chunk = std::min(std::max<int64_t>(1, Profiled), MaxChunk);
  return Chunk;
}

/// The stable ProfileStore key of candidate \p C.
static const char *candidateName(int C) {
  switch (C) {
  case detail::CandLast:
    return "last";
  case detail::CandStride:
    return "stride";
  default:
    return "user";
  }
}

/// Inverse of candidateName(); -1 for unknown names (a cold site or a
/// profile written by a build with different candidates).
static int candidateId(const std::string &Name) {
  for (int C = 0; C < detail::NumCandidates; ++C)
    if (Name == candidateName(C))
      return C;
  return -1;
}

detail::CandidateTally::CandidateTally(const SpecConfig &Cfg)
    : Prof(Cfg.profileSite().empty() ? nullptr : Cfg.profile()),
      Site(Cfg.profileSite()) {}

void detail::CandidateTally::score(int C, bool Hit) {
  ++(Hit ? Hits : Misses)[static_cast<size_t>(C)];
}

void detail::CandidateTally::seed(ChunkTuner &Tuner, bool StrideOk,
                                  SpeculationStats &Stats, Tracer *Tr,
                                  TraceContext Ctx) {
  const int64_t SeededChunk =
      Tuner.autotuned() ? Tuner.seed(Prof->seedChunk(Site)) : 0;
  int BestId = candidateId(Prof->bestPredictor(Site));
  // A stride recommendation is only honourable when T supports it.
  if (BestId == CandStride && !StrideOk)
    BestId = -1;
  if (BestId >= 0)
    Active = BestId;
  Tried[static_cast<size_t>(Active)] = true;
  if (SeededChunk > 0 || BestId >= 0) {
    ++Stats.ProfileSeeds;
    if (Tr)
      Tr->record(SpecEventKind::ProfileSeed, SeededChunk,
                 static_cast<uint64_t>(Active), Ctx);
  }
}

bool detail::CandidateTally::switchOnTrip(SpeculationStats &Stats,
                                          Tracer *Tr, TraceContext Ctx) {
  ++Trips;
  if (!on())
    return false;
  int Best = -1;
  double BestRate = 0.5;
  for (int C = 0; C < NumCandidates; ++C) {
    const size_t I = static_cast<size_t>(C);
    const int64_t N = Hits[I] + Misses[I];
    if (Tried[I] || N < 4)
      continue;
    const double Rate = static_cast<double>(Hits[I]) / N;
    if (Rate > BestRate) {
      BestRate = Rate;
      Best = C;
    }
  }
  if (Best < 0)
    return false;
  Active = Best;
  Tried[static_cast<size_t>(Best)] = true;
  ++Stats.PredictorSwitches;
  if (Tr)
    Tr->record(SpecEventKind::PredictorSwitch, Best, 0, Ctx);
  return true;
}

void detail::CandidateTally::record(const ChunkTuner &Tuner,
                                    const SpeculationStats &Stats) const {
  ProfileStore::RunObservation Obs;
  Obs.FinalChunk = Tuner.autotuned() ? Tuner.chunk() : 0;
  Obs.DegradeTrips = Trips;
  Obs.PredictorSwitches = Stats.PredictorSwitches;
  Obs.Predictions = Stats.Predictions;
  Obs.BadPredictions = Stats.Mispredictions + Stats.FailedPredictions;
  for (int C = 0; C < NumCandidates; ++C) {
    const size_t I = static_cast<size_t>(C);
    if (Hits[I] + Misses[I] > 0)
      Obs.Predictors.emplace_back(candidateName(C),
                                  PredictorProfile{Hits[I], Misses[I]});
  }
  Prof->recordRun(Site, Obs);
}
