//===- tests/apps_test.cpp - End-to-end application tests ------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Integration tests: the three paper benchmarks run end-to-end through
/// the speculation runtime (generate dataset -> speculative run ->
/// compare against the sequential baseline), across task counts, overlap
/// sizes (including adversarially tiny ones) and validation modes.
///
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeHuffman.h"
#include "apps/SpeculativeLexing.h"
#include "apps/SpeculativeMwis.h"
#include "runtime/FaultPlan.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <gtest/gtest.h>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::lexgen;
using namespace specpar::huffman;
using namespace specpar::workloads;

namespace {

struct AppCase {
  int NumTasks;
  int64_t Overlap;
  rt::ValidationMode Mode;
};

class AppSweep : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppSweep, SpeculativeLexingMatchesSequential) {
  const AppCase &C = GetParam();
  for (Language L : AllLanguages) {
    Lexer LX = makeLexer(L);
    std::string Text = generateSource(L, 11, 20000);
    std::vector<Token> Seq = sequentialLex(LX, Text);
    rt::SpecConfig Cfg = rt::SpecConfig().mode(C.Mode).threads(3);
    LexRun Run = speculativeLex(LX, Text, C.NumTasks, C.Overlap, Cfg);
    EXPECT_EQ(Run.Tokens, Seq)
        << languageName(L) << " tasks=" << C.NumTasks
        << " overlap=" << C.Overlap;
    EXPECT_EQ(Run.Stats.Spec.Predictions, C.NumTasks - 1);
  }
}

TEST_P(AppSweep, SpeculativeHuffmanMatchesSequential) {
  const AppCase &C = GetParam();
  for (HuffmanFlavour F : AllHuffmanFlavours) {
    std::vector<uint8_t> Data = generateHuffmanData(F, 23, 40000);
    Encoded E = encode(Data);
    Decoder D(E.Code);
    BitReader In(E.Bytes, E.NumBits);
    rt::SpecConfig Cfg = rt::SpecConfig().mode(C.Mode).threads(3);
    HuffmanRun Run =
        speculativeDecode(D, In, C.NumTasks, C.Overlap * 8, Cfg);
    EXPECT_EQ(Run.Decoded, Data)
        << huffmanFlavourName(F) << " tasks=" << C.NumTasks
        << " overlap=" << C.Overlap;
  }
}

TEST_P(AppSweep, SpeculativeMwisMatchesSequential) {
  const AppCase &C = GetParam();
  for (int64_t MaxW : {int64_t(50), int64_t(5000)}) {
    std::vector<int64_t> W = generatePathGraph(31, 50000, MaxW);
    std::vector<int32_t> SeqMembers;
    int64_t SeqWeight = mwis::solveSequential(W, &SeqMembers);
    rt::SpecConfig Cfg = rt::SpecConfig().mode(C.Mode).threads(3);
    MwisRun Run = speculativeMwis(W, C.NumTasks, C.Overlap, Cfg);
    EXPECT_EQ(Run.Weight, SeqWeight) << "maxW=" << MaxW;
    EXPECT_EQ(Run.Members, SeqMembers) << "maxW=" << MaxW;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AppSweep,
    ::testing::Values(AppCase{1, 64, rt::ValidationMode::Seq},
                      AppCase{4, 256, rt::ValidationMode::Seq},
                      AppCase{4, 0, rt::ValidationMode::Seq},
                      AppCase{4, 256, rt::ValidationMode::Par},
                      AppCase{4, 0, rt::ValidationMode::Par},
                      AppCase{16, 64, rt::ValidationMode::Seq},
                      AppCase{16, 2, rt::ValidationMode::Par}));

TEST(AppsLexing, ZeroOverlapMispredictsButStaysCorrect) {
  Lexer LX = makeLexer(Language::C);
  std::string Text = generateSource(Language::C, 3, 30000);
  LexRun Run = speculativeLex(LX, Text, 8, /*Overlap=*/0);
  EXPECT_EQ(Run.Tokens, sequentialLex(LX, Text));
  EXPECT_GT(Run.Stats.Spec.Mispredictions, 0)
      << "zero overlap cannot predict mid-token states";
}

TEST(AppsLexing, LargeOverlapEliminatesMispredictions) {
  Lexer LX = makeLexer(Language::Java);
  std::string Text = generateSource(Language::Java, 3, 30000);
  LexRun Run = speculativeLex(LX, Text, 8, /*Overlap=*/2048);
  EXPECT_EQ(Run.Stats.Spec.Mispredictions, 0)
      << "the paper's max-speedup configuration";
}

TEST(AppsLexing, AccuracyIsMonotoneInOverlap) {
  Lexer LX = makeLexer(Language::Latex);
  std::string Text = generateSource(Language::Latex, 9, 60000);
  double A16 = lexPredictionAccuracy(LX, Text, 16);
  double A64 = lexPredictionAccuracy(LX, Text, 64);
  double A256 = lexPredictionAccuracy(LX, Text, 256);
  EXPECT_LE(A16, A64 + 1e-9);
  EXPECT_LE(A64, A256 + 1e-9);
  EXPECT_GE(A256, 90.0);
}

TEST(AppsLexing, HtmlAccuracyStaysLowEvenAtLargeOverlap) {
  // The paper: HTML is the exception that never reaches 100%.
  Lexer LX = makeLexer(Language::Html);
  std::string Text = generateSource(Language::Html, 9, 60000);
  double A256 = lexPredictionAccuracy(LX, Text, 256);
  EXPECT_LT(A256, 90.0) << "long text-run tokens defeat the predictor";
}

// The speculative lexer's finalizers move each validated chunk's tokens
// out, and the chunk that lexes the last sub-fragment flushes the
// trailing in-flight token inside its body; its finalizer then assembles
// the output once, at its exact size. These cases drive that last chunk
// down every path that can produce it.
void expectExactAssembly(const Lexer &LX, std::string_view Text,
                         const LexRun &Run, const std::string &What) {
  EXPECT_EQ(Run.Tokens, sequentialLex(LX, Text)) << What;
  EXPECT_EQ(Run.Tokens.capacity(), Run.Tokens.size()) << What;
}

std::vector<std::string> unterminatedTails(Language L) {
  switch (L) {
  case Language::C:
  case Language::Java:
    return {"/* comment never closed", "\"string never closed", "ident_at_eof",
            "x = 1.5e"};
  case Language::Html:
    return {"<!-- comment never closed", "<a href=\"never closed", "text"};
  case Language::Latex:
    return {"\\command", "$x^{", "word"};
  }
  return {};
}

TEST(AppsLexingAssembly, TrailingTokensAreFlushedByTheFinalChunk) {
  for (Language L : AllLanguages) {
    Lexer LX = makeLexer(L);
    for (const std::string &Tail : unterminatedTails(L)) {
      const std::string Text = generateSource(L, 5, 12000) + "\n" + Tail;
      // finishLex must contribute tokens, or this case tests nothing.
      std::vector<Token> NoFlush;
      LX.lexRange(Text, 0, static_cast<int64_t>(Text.size()),
                  LX.initialState(0), &NoFlush);
      EXPECT_LT(NoFlush.size(), sequentialLex(LX, Text).size())
          << languageName(L) << " tail '" << Tail << "'";
      for (rt::ValidationMode M :
           {rt::ValidationMode::Seq, rt::ValidationMode::Par})
        for (int Tasks : {1, 4, 16}) {
          LexRun Run = speculativeLex(LX, Text, Tasks, 64,
                                      rt::SpecConfig().mode(M).threads(3));
          expectExactAssembly(LX, Text, Run,
                              std::string(languageName(L)) + " tail '" +
                                  Tail + "' tasks=" + std::to_string(Tasks));
        }
    }
  }
}

TEST(AppsLexingAssembly, AutotunedChunkBoundariesAssembleExactly) {
  Lexer LX = makeLexer(Language::Java);
  const std::string Text =
      generateSource(Language::Java, 7, 200000) + "\n\"open string";
  // A 1 us target halves chunks wave after wave; a 1 s target doubles
  // them. Either way the final chunk's boundaries differ from the grid.
  for (int64_t TargetUs : {int64_t(1), int64_t(1000000)}) {
    LexRun Run = speculativeLex(
        LX, Text, 64, 256, rt::SpecConfig().threads(3).autotune(TargetUs));
    EXPECT_NE(Run.Stats.Spec.FinalChunk, kLexChunkSize)
        << "target " << TargetUs << " us never resized the chunk";
    expectExactAssembly(LX, Text, Run,
                        "autotune " + std::to_string(TargetUs) + " us");
  }
}

TEST(AppsLexingAssembly, ReexecutedFinalChunkAssemblesExactly) {
  Lexer LX = makeLexer(Language::C);
  const std::string Text = generateSource(Language::C, 9, 60000) + "\n/* open";
  for (rt::ValidationMode M :
       {rt::ValidationMode::Seq, rt::ValidationMode::Par}) {
    // Every prediction point is forced to mispredict, so the validator
    // re-executes every chunk after the first, the final one included.
    rt::FaultPlan FP(3);
    FP.arm(rt::FaultSite::ForceMispredict, 1.0);
    const int Tasks = 8;
    LexRun Run = speculativeLex(LX, Text, Tasks, 256,
                                rt::SpecConfig().mode(M).threads(3).faults(&FP));
    EXPECT_EQ(Run.Stats.Spec.Reexecutions, Tasks - 1);
    expectExactAssembly(LX, Text, Run, "forced mispredictions");
  }
}

TEST(AppsLexingAssembly, DegradedFinalChunkAssemblesExactly) {
  Lexer LX = makeLexer(Language::Latex);
  const std::string Text =
      generateSource(Language::Latex, 13, 60000) + "\n$x^{";
  // The first bad prediction point trips the monitor; the rest of the
  // input, the final chunk included, runs sequentially on the validator.
  rt::FaultPlan FP(4);
  FP.arm(rt::FaultSite::ForceMispredict, 1.0);
  LexRun Run = speculativeLex(
      LX, Text, 16, 256,
      rt::SpecConfig().threads(3).faults(&FP).degrade(0.0, 1));
  EXPECT_GT(Run.Stats.Spec.DegradedChunks, 0);
  expectExactAssembly(LX, Text, Run, "degraded");
}

TEST(AppsLexingAssembly, EmptySubFragmentsAssembleExactly) {
  // N < NumTasks * kLexChunkSize: many sub-fragments are empty, and for
  // the smallest inputs whole chunks are, the final one included.
  for (Language L : AllLanguages) {
    Lexer LX = makeLexer(L);
    const std::string Source = generateSource(L, 17, 400);
    for (size_t N : {size_t(1), size_t(7), size_t(63), size_t(200)})
      for (int Tasks : {8, 32}) {
        const std::string Text = Source.substr(0, N);
        ASSERT_EQ(Text.size(), N);
        if (static_cast<int64_t>(N) >= Tasks * kLexChunkSize)
          continue;
        LexRun Run =
            speculativeLex(LX, Text, Tasks, 16, rt::SpecConfig().threads(3));
        expectExactAssembly(LX, Text, Run,
                            std::string(languageName(L)) + " N=" +
                                std::to_string(N) +
                                " tasks=" + std::to_string(Tasks));
      }
  }
}

TEST(AppsHuffman, MeasurementProducesSaneInputsForTheSimulator) {
  std::vector<uint8_t> Data =
      generateHuffmanData(HuffmanFlavour::Text, 5, 60000);
  Encoded E = encode(Data);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  SegmentedMeasurement M = measureHuffman(D, In, 8, 512 * 8);
  ASSERT_EQ(M.Tasks.size(), 8u);
  double Total = 0;
  for (const sim::TaskSpec &T : M.Tasks) {
    EXPECT_GT(T.Work, 0.0);
    Total += T.Work;
  }
  EXPECT_NEAR(Total, M.SequentialSeconds, 1e-12);
  // Large overlap: essentially all predictions correct.
  int Correct = 0;
  for (const sim::TaskSpec &T : M.Tasks)
    Correct += T.PredictionCorrect;
  EXPECT_GE(Correct, 7);
}

TEST(AppsMwis, SingleTaskIsTheSequentialAlgorithm) {
  std::vector<int64_t> W = generatePathGraph(77, 10000, 50);
  MwisRun Run = speculativeMwis(W, 1, 0);
  EXPECT_EQ(Run.Weight, mwis::solveSequential(W, nullptr));
  EXPECT_EQ(Run.ForwardStats.Mispredictions, 0);
}

TEST(AppsMwis, EmptyGraph) {
  MwisRun Run = speculativeMwis({}, 4, 8);
  EXPECT_EQ(Run.Weight, 0);
  EXPECT_TRUE(Run.Members.empty());
}

} // namespace
