//===- apps/SpeculativeLexing.cpp - The paper's lexing benchmark -----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeLexing.h"

#include "support/Timer.h"

#include <algorithm>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::lexgen;

std::vector<Token> specpar::apps::sequentialLex(const Lexer &L,
                                                std::string_view Text) {
  return L.lexAll(Text);
}

LexRun specpar::apps::speculativeLex(const Lexer &L, std::string_view Text,
                                     int NumTasks, int64_t Overlap,
                                     const rt::SpecConfig &Cfg) {
  LexRun Run;
  const int64_t N = static_cast<int64_t>(Text.size());
  if (NumTasks <= 0 || N == 0) {
    Run.Tokens = sequentialLex(L, Text);
    return Run;
  }
  // Iterate at sub-fragment granularity and speculate per chunk of
  // kLexChunkSize sub-fragments: one prediction per chunk (= per task, at
  // the same boundaries N*t/NumTasks a task-per-segment split would use,
  // since floor(N*(t*K)/(NumTasks*K)) == floor(N*t/NumTasks)), with the
  // chunk's sub-ranges lexed sequentially inside the attempt. lexRange
  // composes (lexRange(a,b) then lexRange(b,c) == lexRange(a,c)), so the
  // output is identical to the per-segment formulation.
  const int64_t NumSub = static_cast<int64_t>(NumTasks) * kLexChunkSize;
  auto Bound = [&](int64_t I) { return N * I / NumSub; };

  // The snapshot sink fills Run.Stats.Spec and attributes the resolved
  // executor's activity delta to Run.Stats.Exec — including transient
  // executors the old sharedExecutor() snapshotting could not observe.
  rt::SpecConfig RunCfg = Cfg;
  RunCfg.statsOut(&Run.Stats);

  // A chunk's tokens, and whether the chunk lexed the input's last
  // sub-fragment (its body then flushed the trailing in-flight token).
  struct Part {
    std::vector<Token> Tokens;
    bool Last = false;
  };
  // Validated chunks' token vectors, moved in by the finalizers in order.
  // The last chunk's finalizer concatenates them once into Run.Tokens at
  // its exact size: merging chunk by chunk into one growing vector would
  // re-copy (and page-fault) everything merged so far at each doubling,
  // all of it on the validator's serial path.
  std::vector<std::vector<Token>> Parts;
  Parts.reserve(static_cast<size_t>(NumTasks));

  rt::Speculation::iterateChunkedLocal<LexState, Part>(
      0, NumSub, kLexChunkSize,
      /*Init=*/[] { return Part(); },
      /*Body=*/
      [&](int64_t I, Part &Local, LexState In) {
        // Cooperative cancellation between sub-fragments: an attempt
        // that observed cancellation is never accepted, so bailing
        // with the unprocessed state is safe and stops wasted work.
        if (rt::currentTaskCancelled())
          return In;
        LexState Out =
            L.lexRange(Text, Bound(I), Bound(I + 1), In, &Local.Tokens);
        if (I + 1 == NumSub) {
          L.finishLex(Text, Out, &Local.Tokens);
          Local.Last = true;
        }
        return Out;
      },
      /*Predictor=*/
      [&](int64_t I) {
        if (I == 0)
          return L.initialState(0);
        return L.predictStateAt(Text, Bound(I), Overlap);
      },
      /*Finalize=*/
      [&](int64_t, Part &Local) {
        Parts.push_back(std::move(Local.Tokens));
        if (!Local.Last)
          return;
        size_t Total = 0;
        for (const std::vector<Token> &P : Parts)
          Total += P.size();
        Run.Tokens.reserve(Total);
        for (const std::vector<Token> &P : Parts)
          Run.Tokens.insert(Run.Tokens.end(), P.begin(), P.end());
        // Free the parts here too, inside the run's traced span.
        Parts.clear();
      },
      RunCfg);
  return Run;
}

double specpar::apps::lexPredictionAccuracy(const Lexer &L,
                                            std::string_view Text,
                                            int64_t Overlap, int NumPoints) {
  const int64_t N = static_cast<int64_t>(Text.size());
  if (NumPoints <= 1 || N == 0)
    return 100.0;
  int Correct = 0, Total = 0;
  LexState Truth = L.initialState(0);
  int64_t Done = 0;
  for (int I = 1; I < NumPoints; ++I) {
    int64_t Boundary = N * I / NumPoints;
    Truth = L.lexRange(Text, Done, Boundary, Truth, nullptr);
    Done = Boundary;
    LexState Pred = L.predictStateAt(Text, Boundary, Overlap);
    ++Total;
    if (Pred == Truth)
      ++Correct;
  }
  return 100.0 * Correct / Total;
}

SegmentedMeasurement specpar::apps::measureLexing(const Lexer &L,
                                                  std::string_view Text,
                                                  int NumTasks,
                                                  int64_t Overlap,
                                                  int Repeats) {
  SegmentedMeasurement M;
  const int64_t N = static_cast<int64_t>(Text.size());
  const int64_t Frag = (N + NumTasks - 1) / NumTasks;
  std::vector<Token> Scratch;
  LexState Carried = L.initialState(0);
  double PredTotal = 0;
  for (int I = 0; I < NumTasks; ++I) {
    int64_t From = I * Frag, To = std::min(N, (I + 1) * Frag);
    // Prediction outcome against the true carried state.
    bool Correct = true;
    double PredSeconds = 0;
    if (I > 0) {
      Timer T;
      LexState Pred = L.predictStateAt(Text, From, Overlap);
      PredSeconds = T.elapsedSeconds();
      Correct = Pred == Carried;
    }
    PredTotal += PredSeconds;
    // Segment work: best of Repeats timings of the real range lex.
    double Best = -1;
    LexState Out = Carried;
    for (int R = 0; R < Repeats; ++R) {
      Scratch.clear();
      Timer T;
      Out = L.lexRange(Text, From, To, Carried, &Scratch);
      double S = T.elapsedSeconds();
      if (Best < 0 || S < Best)
        Best = S;
    }
    Carried = Out;
    sim::TaskSpec Spec;
    Spec.Work = Best;
    Spec.PredictionCorrect = Correct;
    M.Tasks.push_back(Spec);
    M.SequentialSeconds += Best;
  }
  M.PredictorSeconds = NumTasks > 1 ? PredTotal / (NumTasks - 1) : 0;
  return M;
}
