//===- perfbench/cpp/CompiledWorkload.cpp - compiled-spec -----------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `compiled-spec`: the three Speculate benchmark programs of
/// bench/speculate, resized here (8 segments of 4000 elements, MWIS salts
/// from the seed), compiled by `compile::compileProgram` and run by
/// `CompiledProgram::run` on a warm executor, closed loop. One round runs
/// the three programs once. Nearly all the time is compiled-node
/// evaluation; neither the native apps nor the serving layer take part.
/// The oracle is the reference interpreter, `interp::runNonSpeculative`.
/// The sequential baseline is the same compiled code with all 8 segments
/// in one chunk, so nothing runs in parallel.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "analysis/RollbackChecker.h"
#include "compile/Compiler.h"
#include "interp/NonSpecEval.h"
#include "lang/Parser.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

using namespace specpar;

namespace perfbench {
namespace {

constexpr int kNumSegs = 8;
constexpr int kSegLen = 4000;
/// Segments per speculative chunk: 8 segments make 4 chunks, one per
/// thread at nproc = 4 (3 workers and the validating caller). The
/// sequential baseline puts them in one chunk.
constexpr int64_t kChunkSize = 2;
constexpr int64_t kSequentialChunkSize = kNumSegs;

struct Program {
  const char *Name;
  std::string Source;
  std::unique_ptr<lang::Program> Ast;
  std::shared_ptr<compile::CompiledProgram> Compiled;
  int64_t Expected = 0;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// One edit of a program's source: the text between the only occurrence
/// of `Before` and the next `After` becomes `Value`.
struct Edit {
  std::string Before, After, Value;
};

/// Applies \p Edits to \p Src. Returns the first edit whose `Before` does
/// not occur exactly once, or whose `After` does not follow it, as an
/// error; empty on success.
std::string applyEdits(std::string &Src, const std::vector<Edit> &Edits) {
  for (const Edit &E : Edits) {
    const size_t At = Src.find(E.Before);
    if (At == std::string::npos ||
        Src.find(E.Before, At + 1) != std::string::npos)
      return "`" + E.Before + "` does not occur exactly once";
    const size_t From = At + E.Before.size();
    const size_t To = Src.find(E.After, From);
    if (To == std::string::npos)
      return "no `" + E.After + "` after `" + E.Before + "`";
    Src.replace(From, To - From, E.Value);
  }
  return "";
}

/// The edits that size program \p Name: main's `numSegs` and `segLen`;
/// for huffman, `numSyms` scaled with them (150 symbols per 512 bits, as
/// in the original, so the stream fills the same share of the array); for
/// mwis, the two datasets' input salts.
std::vector<Edit> sizingEdits(const std::string &Name, uint64_t Seed) {
  std::vector<Edit> E = {
      {"let numSegs = ", " in", std::to_string(kNumSegs)},
      {"let segLen = ", " in", std::to_string(kSegLen)},
  };
  if (Name == "huffman")
    E.push_back({"let numSyms = ", " in", "numSegs * segLen * 150 / 512"});
  if (Name == "mwis") {
    E.push_back({"solveDataset(n, numSegs, segLen, 8, 50, ", ")",
                 std::to_string(Seed % 1000003)});
    E.push_back({"solveDataset(n, numSegs, segLen, 8, 5000, ", ")",
                 std::to_string((Seed * 2654435761u) % 1000003)});
  }
  return E;
}

/// Runs \p P once with \p Cfg and \p ChunkSize. Returns its wall time;
/// \p Ok reports agreement with the oracle.
double runOnce(const Program &P, const rt::SpecConfig &Cfg, int64_t ChunkSize,
               bool &Ok, compile::CompiledProgram::Outcome *Out) {
  compile::CompiledProgram::RunOptions RO;
  RO.Config = Cfg;
  RO.ChunkSize = ChunkSize;
  Clock::time_point T0 = Clock::now();
  compile::CompiledProgram::Outcome O = P.Compiled->run(RO);
  double Ms = msSince(T0);
  Ok = O.Run.ok() && O.Run.Result.isInt() &&
       O.Run.Result.asInt() == P.Expected;
  if (Out)
    *Out = std::move(O);
  return Ms;
}

} // namespace

Report runCompiledSpec(const Options &O) {
  Report R;
  R.WorkerCounts["executor"] = O.Workers;
  Program Progs[] = {{"lexing", {}, {}, {}, 0},
                     {"huffman", {}, {}, {}, 0},
                     {"mwis", {}, {}, {}, 0}};
  for (Program &P : Progs) {
    const std::string Path =
        std::string(PERFBENCH_SPEC_DIR) + "/" + P.Name + ".spec";
    P.Source = readFile(Path);
    if (P.Source.empty()) {
      R.CheckErrors.push_back("cannot read " + Path);
      return R;
    }
  }

  Samples GenMs, ParseMs, CheckMs, LowerMs, OracleMs;
  std::shared_ptr<rt::SpecExecutor> Ex;
  rt::SpecConfig Cfg;
  auto Check = [&R](bool Ok, const char *Name) {
    ++R.Attempted;
    if (!Ok)
      R.fail(std::string(Name) + ".spec: compiled result differs from the "
                                 "reference interpreter");
  };
  auto Round = [&](const rt::SpecConfig &C, int64_t ChunkSize,
                   double *PerProgram) {
    double Total = 0;
    for (int I = 0; I < 3; ++I) {
      bool Ok = false;
      double Ms = runOnce(Progs[I], C, ChunkSize, Ok, nullptr);
      Check(Ok, Progs[I].Name);
      Total += Ms;
      if (PerProgram)
        PerProgram[I] = Ms;
    }
    return Total;
  };

  bool SetupOk = true;
  double SetupS = timedSetups(kSetupRepeats, [&] {
    double Gen = 0, Parse = 0, Chk = 0, Lower = 0, Oracle = 0;
    for (Program &P : Progs) {
      Clock::time_point T0 = Clock::now();
      std::string Src = P.Source;
      const std::string EditError =
          applyEdits(Src, sizingEdits(P.Name, O.Seed));
      Gen += msSince(T0);
      if (!EditError.empty()) {
        R.CheckErrors.push_back(std::string(P.Name) + ".spec: " + EditError);
        SetupOk = false;
        return;
      }

      T0 = Clock::now();
      auto Parsed = lang::parseProgram(Src);
      Parse += msSince(T0);
      if (!Parsed) {
        R.CheckErrors.push_back(std::string(P.Name) + ".spec: " +
                                Parsed.error());
        SetupOk = false;
        return;
      }
      P.Ast = Parsed.take();

      T0 = Clock::now();
      analysis::AnalysisReport AR = analysis::checkRollbackFreedom(*P.Ast);
      Chk += msSince(T0);

      // compileProgram runs the checker again as its admission gate.
      T0 = Clock::now();
      auto Compiled = compile::compileProgram(*P.Ast);
      Lower += msSince(T0);
      if (!AR.programSafe() || !Compiled) {
        R.CheckErrors.push_back(std::string(P.Name) +
                                ".spec: not admitted by the checker/compiler");
        SetupOk = false;
        return;
      }
      P.Compiled = *Compiled;

      T0 = Clock::now();
      interp::RunOutcome N = interp::runNonSpeculative(*P.Ast);
      Oracle += msSince(T0);
      if (!N.ok() || !N.Result.isInt()) {
        R.CheckErrors.push_back(std::string(P.Name) +
                                ".spec: the reference interpreter failed: " +
                                N.statusStr());
        SetupOk = false;
        return;
      }
      P.Expected = N.Result.asInt();
    }
    GenMs.add(Gen);
    ParseMs.add(Parse);
    CheckMs.add(Chk);
    LowerMs.add(Lower);
    OracleMs.add(Oracle);
    Ex.reset();
    Ex = rt::SpecExecutor::create(O.Workers);
    Cfg = rt::SpecConfig().executor(Ex);
    // A pass is one round of each kind; 4 passes run each program 8 times.
    for (int Pass = 0; Pass < 2 * kWarmPasses; ++Pass) {
      Round(Cfg, kSequentialChunkSize, nullptr);
      Round(Cfg, kChunkSize, nullptr);
    }
  });
  if (!SetupOk)
    return R;

  const Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(O.Seconds));
  if (!O.Trace) {
    // Paired rounds, the side that goes first alternating.
    Samples SeqRoundMs, RoundMs, HeapMb;
    for (int I = 0; Clock::now() < End; ++I) {
      for (int Side = 0; Side < 2; ++Side) {
        if ((Side == 0) == (I % 2 == 0)) {
          SeqRoundMs.add(Round(Cfg, kSequentialChunkSize, nullptr));
        } else {
          RoundMs.add(Round(Cfg, kChunkSize, nullptr));
          HeapMb.add(heapInUseMb());
        }
      }
    }
    R.set("setup_s", SetupS, "s", kSetupRepeats);
    R.set("run_ms_p50", RoundMs.median(), "ms", RoundMs.size());
    R.set("run_ms_p90", RoundMs.pct(90), "ms", RoundMs.size());
    R.set("speedup", SeqRoundMs.median() / RoundMs.median(), "x",
          RoundMs.size());
    R.set("job_ms_p50", RoundMs.median(), "ms", RoundMs.size());
    R.setJobTail(RoundMs, 90); // as for the native closed loops
    R.set("max_rate_jobs_s", 1000.0 / RoundMs.mean(), "1/s", RoundMs.size());
    R.set("heap_mb", HeapMb.mean(), "MB", HeapMb.size());
    return R;
  }

  // Traced run: untraced and traced rounds alternate; one tracer per
  // traced round keeps its rings from wrapping.
  Samples RoundMs, TracedMs, PerProgMs[3];
  RuntimeTotals RT;
  rt::ExecutorStats ExecDelta;
  int64_t Mispredictions = 0, Predictions = 0;
  uint64_t Dropped = 0;
  double Steps = 0;
  for (int I = 0; Clock::now() < End; ++I) {
    if (I % 2 == 0) {
      double Per[3];
      rt::ExecutorStats Before = Ex->stats();
      RoundMs.add(Round(Cfg, kChunkSize, Per));
      ExecDelta += Ex->stats() - Before;
      for (int K = 0; K < 3; ++K)
        PerProgMs[K].add(Per[K]);
      continue;
    }
    rt::Tracer Tr(1 << 15);
    rt::SpecConfig C = rt::SpecConfig(Cfg).trace(&Tr);
    std::vector<RunSpan> Spans;
    double Total = 0;
    for (Program &P : Progs) {
      compile::CompiledProgram::Outcome Out;
      bool Ok = false;
      RunSpan S;
      S.StartNs = Tr.elapsedNs();
      Total += runOnce(P, C, kChunkSize, Ok, &Out);
      S.EndNs = Tr.elapsedNs();
      S.TrimToEvents = true;
      Spans.push_back(S);
      Check(Ok, P.Name);
      Mispredictions += Out.Stats.Mispredictions;
      Predictions += Out.Stats.Predictions;
      Steps += double(Out.Run.Steps);
    }
    TracedMs.add(Total);
    accumulateRuntime(Tr.snapshot(), Spans, RT);
    Dropped += Tr.droppedEvents();
  }
  const double StepsPerRound =
      Steps / double(std::max<size_t>(TracedMs.size(), 1));

  R.set("workloads.gen_ms", GenMs.median(), "ms", GenMs.size());
  R.set("lang.parse_ms", ParseMs.median(), "ms", ParseMs.size());
  R.set("analysis.check_ms", CheckMs.median(), "ms", CheckMs.size());
  R.set("compile.lower_ms", LowerMs.median(), "ms", LowerMs.size());
  R.set("interp.oracle_ms", OracleMs.median(), "ms", OracleMs.size());
  R.set("compile.lexing_ms", PerProgMs[0].median(), "ms", PerProgMs[0].size());
  R.set("compile.huffman_ms", PerProgMs[1].median(), "ms",
        PerProgMs[1].size());
  R.set("compile.mwis_ms", PerProgMs[2].median(), "ms", PerProgMs[2].size());
  R.set("compile.steps", StepsPerRound, "count", TracedMs.size());
  R.set("compile.ns_per_step",
        StepsPerRound > 0 ? RoundMs.median() * 1e6 / StepsPerRound : 0, "ns",
        RoundMs.size());
  reportRuntimeLayers(R, RT, ExecDelta, 3 * int64_t(RoundMs.size()),
                      Mispredictions, Predictions, RoundMs, TracedMs, Dropped,
                      O.Workers + 1);
  return R;
}

} // namespace perfbench
