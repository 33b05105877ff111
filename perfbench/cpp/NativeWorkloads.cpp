//===- perfbench/cpp/NativeWorkloads.cpp - lex-java, huffman-media --------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two native workloads: one big speculative run at a time on a warm
/// `SpecExecutor` of `nproc - 1` workers (the caller validates), closed
/// loop, interleaved with runs of the sequential kernel (one per
/// speculative run for lexing, one per two for Huffman), the side that
/// goes first alternating.
///
///  * `lex-java`: `apps::speculativeLex` over 4 MB windows of a seeded
///    Java corpus, 64 tasks, overlap 256. No boundary mispredicts, so the
///    validator's serial finalize (the token merge) dominates: the clean
///    path.
///  * `huffman-media`: `apps::speculativeDecode` over 4 MB windows of a
///    seeded media-flavour corpus, 64 tasks, overlap 64 bits. About a
///    third of the boundaries mispredict, so validator re-execution
///    dominates: the waste path.
///
/// Every run or pair of runs takes a window of its own from a corpus made
/// from the seed: one input's run time depends on where its heaviest
/// segments fall (up to 30% apart between inputs) and, for lexing, on
/// whether its token buffers reuse freed memory or page-fault on fresh
/// mappings (13 against 32 ms), and percentiles over many inputs keep that
/// from deciding a run's figures.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/SpeculativeHuffman.h"
#include "apps/SpeculativeLexing.h"
#include "huffman/Huffman.h"
#include "lexgen/Languages.h"
#include "simsched/SimSched.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

using namespace specpar;

namespace perfbench {
namespace {

constexpr size_t kInputBytes = 4 << 20;
/// The seeded corpora the inputs are windows of. Windows of a corpus only
/// twice their size overlap so much that a seed's windows are alike, and
/// a run's figures then depend on its seed: lex-java's windows take a
/// page-faulting path or not (run time 13 or 32 ms, see above), and the
/// share of a seed's windows that did moved the median by 20% between
/// seeds. Huffman's corpus is smaller because
/// encoding it is most of its set-up (~1.3 s for 16 MB).
constexpr size_t kLexCorpusBytes = 8 * kInputBytes;
constexpr size_t kHuffmanCorpusBytes = 4 * kInputBytes;
constexpr int kTasks = 64;
/// Inputs the warm-up passes run (kWarmPasses times each, paired).
constexpr int kWarmInputs = 2;

/// A 64-bit hash of input \p I of a run with seed \p Seed, from which
/// the input's window in the seeded corpus is drawn.
uint64_t inputHash(uint64_t Seed, int I) {
  uint64_t X = (Seed * 1000 + uint64_t(I)) * 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 31)) * 0xbf58476d1ce4e5b9ull;
  return X ^ (X >> 29);
}

/// One native application: its inputs, its sequential kernel (the
/// baseline) and its speculative entry point. A run returns its wall time
/// in ms and keeps its output for `outputOk()`, so the check and the
/// output's release stay outside the timed call.
class NativeApp {
public:
  virtual ~NativeApp() = default;
  /// Name of the per-layer metric of the sequential kernel.
  virtual const char *seqMetric() const = 0;
  /// Number of inputs a run cycles through.
  virtual int inputs() const = 0;
  virtual void generate(uint64_t Seed) = 0;
  /// Builds what the kernels need, and the oracles.
  virtual void prepare() = 0;
  virtual double runSequential(int In) = 0;
  /// \p Stats, when given, receives the run's statistics.
  virtual double runSpeculative(int In, const rt::SpecConfig &Cfg,
                                rt::stats::Snapshot *Stats) = 0;
  /// Whether the last run's output equals input \p In's oracle; frees the
  /// output. False also when an output checked earlier, before the oracle
  /// existed, turned out to differ.
  virtual bool outputOk(int In) = 0;
  /// Whether every output has been compared with its oracle.
  virtual bool allChecked() const { return true; }
  /// Speculative runs timed per sequential one. More than one where the
  /// sequential kernel takes much longer than a speculative run and the
  /// oracle does not need it, so that a run's percentiles rest on more
  /// speculative runs.
  virtual int specRunsPerSequential() const { return 1; }
  virtual apps::SegmentedMeasurement measure(int In) = 0;
};

/// Input \p I is a 4 MB window of a 32 MB corpus, at an offset drawn
/// from the seed: every pair of runs lexes text of its own at the cost of
/// one corpus. The oracle is the token stream of the window's sequential
/// lex, kept as its length and a 64-bit multiply-xorshift digest (a full
/// stream takes 25 MB). A speculative run that comes first in its pair is
/// checked when the sequential run of the pair has made the oracle.
class LexJava final : public NativeApp {
public:
  const char *seqMetric() const override { return "lexgen.seq_ms"; }
  int inputs() const override { return kInputs; }
  void generate(uint64_t Seed) override {
    Corpus = workloads::generateSource(lexgen::Language::Java, Seed,
                                       kLexCorpusBytes);
    CorpusSeed = Seed;
  }
  void prepare() override {
    L.emplace(lexgen::makeLexer(lexgen::Language::Java));
    Oracles.clear();
  }
  double runSequential(int In) override {
    Clock::time_point T0 = Clock::now();
    Out = apps::sequentialLex(*L, text(In));
    const double Ms = msSince(T0);
    Oracles.try_emplace(In, digest(Out));
    return Ms;
  }
  double runSpeculative(int In, const rt::SpecConfig &Cfg,
                        rt::stats::Snapshot *Stats) override {
    Clock::time_point T0 = Clock::now();
    apps::LexRun Run = apps::speculativeLex(*L, text(In), kTasks, kOverlap, Cfg);
    double Ms = msSince(T0);
    Out = std::move(Run.Tokens);
    if (Stats)
      *Stats = Run.Stats;
    return Ms;
  }
  bool outputOk(int In) override {
    const Digest D = digest(Out);
    std::vector<lexgen::Token>().swap(Out);
    auto It = Oracles.find(In);
    if (It == Oracles.end()) {
      Pending.emplace_back(In, D);
      return true;
    }
    bool Ok = D == It->second;
    // Outputs of this input that came before its oracle.
    for (auto P = Pending.begin(); P != Pending.end();)
      if (P->first == In) {
        Ok &= P->second == It->second;
        P = Pending.erase(P);
      } else {
        ++P;
      }
    return Ok;
  }
  bool allChecked() const override { return Pending.empty(); }
  apps::SegmentedMeasurement measure(int In) override {
    return apps::measureLexing(*L, text(In), kTasks, kOverlap);
  }

private:
  /// More windows than a run gets through: each run has its own.
  static constexpr int kInputs = 1 << 20;
  static constexpr int64_t kOverlap = 256;
  using Digest = std::pair<size_t, uint64_t>;

  static Digest digest(const std::vector<lexgen::Token> &Toks) {
    uint64_t H = 0;
    auto Mix = [&H](uint64_t V) {
      H = (H ^ V) * 0x9e3779b97f4a7c15ull;
      H ^= H >> 29;
    };
    for (const lexgen::Token &T : Toks) {
      Mix(uint64_t(uint32_t(T.Rule)));
      Mix(uint64_t(T.Start));
      Mix(uint64_t(T.End));
    }
    return {Toks.size(), H};
  }

  std::string_view text(int In) const {
    return std::string_view(Corpus).substr(
        inputHash(CorpusSeed, In) % (Corpus.size() - kInputBytes + 1),
        kInputBytes);
  }

  std::string Corpus;
  uint64_t CorpusSeed = 0;
  std::map<int, Digest> Oracles;
  std::vector<std::pair<int, Digest>> Pending;
  std::optional<lexgen::Lexer> L;
  std::vector<lexgen::Token> Out;
};

/// Input \p I is a window of kInputBytes symbols of a 16 MB media corpus,
/// encoded once, at an offset drawn from the seed: every speculative run
/// decodes data of its own at the cost of one corpus. A window starts at a
/// symbol whose code begins on a byte boundary (about one in eight), so
/// that it is a bit stream of its own, read in place. The oracle is the
/// corpus itself.
class HuffmanMedia final : public NativeApp {
public:
  const char *seqMetric() const override { return "huffman.seq_ms"; }
  int inputs() const override { return kInputs; }
  /// The oracle is the corpus, and a sequential decode takes about twice
  /// as long as a speculative one.
  int specRunsPerSequential() const override { return 2; }
  void generate(uint64_t Seed) override {
    Source = workloads::generateHuffmanData(workloads::HuffmanFlavour::Media,
                                            Seed, kHuffmanCorpusBytes);
    CorpusSeed = Seed;
  }
  void prepare() override {
    Enc = huffman::encode(Source);
    Dec.emplace(Enc.Code);
    BitAt.assign(1, 0);
    int64_t Bit = 0;
    for (size_t I = 0; I < Source.size(); ++I) {
      Bit += Enc.Code.codeLength(Source[I]);
      if ((I + 1) % kBitStride == 0)
        BitAt.push_back(Bit);
    }
  }
  double runSequential(int In) override {
    const Window W = window(In);
    Clock::time_point T0 = Clock::now();
    Out = Dec->decodeAll(W.Bits, int64_t(kInputBytes));
    return msSince(T0);
  }
  double runSpeculative(int In, const rt::SpecConfig &Cfg,
                        rt::stats::Snapshot *Stats) override {
    const Window W = window(In);
    Clock::time_point T0 = Clock::now();
    apps::HuffmanRun Run =
        apps::speculativeDecode(*Dec, W.Bits, kTasks, kOverlapBits, Cfg);
    double Ms = msSince(T0);
    Out = std::move(Run.Decoded);
    if (Stats)
      *Stats = Run.Stats;
    return Ms;
  }
  bool outputOk(int In) override {
    const size_t First = window(In).First;
    bool Ok = Out.size() == kInputBytes &&
              std::equal(Out.begin(), Out.end(), Source.begin() + First);
    std::vector<uint8_t>().swap(Out);
    return Ok;
  }
  apps::SegmentedMeasurement measure(int In) override {
    return apps::measureHuffman(*Dec, window(In).Bits, kTasks, kOverlapBits);
  }

private:
  /// More windows than a run gets through: each run has its own.
  static constexpr int kInputs = 1 << 20;
  static constexpr int64_t kOverlapBits = 64;
  /// Symbols between two entries of BitAt.
  static constexpr size_t kBitStride = 4096;
  /// Symbols a window's start may move on to reach a byte boundary.
  static constexpr size_t kAlignSlack = 4096;

  struct Window {
    size_t First; ///< Index of the window's first symbol in Source.
    huffman::BitReader Bits;
  };

  /// The bit offset of symbol \p I's code.
  int64_t bitOf(size_t I) const {
    int64_t Bit = BitAt[I / kBitStride];
    for (size_t J = I - I % kBitStride; J < I; ++J)
      Bit += Enc.Code.codeLength(Source[J]);
    return Bit;
  }

  Window window(int In) const {
    // The first byte-aligned symbol from a seeded offset on (about eight
    // symbols on), with room for the window behind it.
    size_t First = inputHash(CorpusSeed, In) %
                   (Source.size() - kInputBytes - kAlignSlack + 1);
    int64_t Begin = bitOf(First);
    for (; Begin % 8 != 0 && First + kInputBytes < Source.size(); ++First)
      Begin += Enc.Code.codeLength(Source[First]);
    if (Begin % 8 != 0)
      First = Begin = 0;
    const int64_t End = bitOf(First + kInputBytes);
    return {First,
            huffman::BitReader(Enc.Bytes.data() + Begin / 8, End - Begin)};
  }

  std::vector<uint8_t> Source;
  uint64_t CorpusSeed = 0;
  huffman::Encoded Enc;
  std::optional<huffman::Decoder> Dec;
  std::vector<int64_t> BitAt; ///< Bit offset of every kBitStride-th symbol.
  std::vector<uint8_t> Out;
};

/// fig6_speedup's calibration of the per-task runtime overhead: a trivial
/// chunked iterate on \p Ex, amortized over its tasks.
double spawnOverheadSeconds(rt::SpecExecutor &Ex) {
  const int64_t N = 2000, ChunkSize = 8;
  Clock::time_point T0 = Clock::now();
  rt::SpecResult<int64_t> R = rt::Speculation::iterateChunked<int64_t>(
      0, N, ChunkSize, [](int64_t, int64_t A) { return A; },
      [](int64_t) { return int64_t(0); }, rt::SpecConfig().executor(Ex));
  return msSince(T0) / 1000.0 / double(std::max<int64_t>(R.Stats.Tasks, 1));
}

Report runNative(const Options &O, NativeApp &App) {
  Report R;
  R.WorkerCounts["executor"] = O.Workers;
  const int K = App.inputs();
  std::shared_ptr<rt::SpecExecutor> Ex;
  rt::SpecConfig Cfg;
  Samples GenMs;
  auto Check = [&](int In, const char *What) {
    ++R.Attempted;
    if (!App.outputOk(In))
      R.fail(std::string(What) +
             " output (or an earlier one of its input) differs from the "
             "oracle");
  };
  auto CheckAll = [&] {
    if (!App.allChecked())
      R.CheckErrors.push_back("outputs left without an oracle to check");
  };

  // Set-up: inputs, oracles, a fresh executor, and warm-up.
  double SetupS = timedSetups(kSetupRepeats, [&] {
    Clock::time_point T0 = Clock::now();
    App.generate(O.Seed);
    GenMs.add(msSince(T0));
    App.prepare();
    Ex.reset();
    Ex = rt::SpecExecutor::create(O.Workers);
    Cfg = rt::SpecConfig().executor(Ex);
    for (int Pass = 0; Pass < kWarmPasses; ++Pass)
      for (int In = 0; In < std::min(K, kWarmInputs); ++In) {
        App.runSequential(In);
        Check(In, "sequential");
        App.runSpeculative(In, Cfg, nullptr);
        Check(In, "speculative");
      }
  });

  const Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(O.Seconds));

  if (!O.Trace) {
    // Groups of one sequential run and S speculative ones on inputs of
    // their own, the first of which the sequential run shares. Which side
    // goes first alternates from group to group, so that drift and the
    // previous run's cache and allocator state fall on both sides alike.
    const int S = App.specRunsPerSequential();
    Samples SeqMs, SpecMs, HeapMb;
    for (int I = 0; Clock::now() < End; ++I) {
      const int In = (I * S) % K;
      const bool SeqFirst = I % 2 == 0;
      if (SeqFirst) {
        SeqMs.add(App.runSequential(In));
        Check(In, "sequential");
      }
      for (int J = 0; J < S; ++J) {
        SpecMs.add(App.runSpeculative((In + J) % K, Cfg, nullptr));
        HeapMb.add(heapInUseMb());
        Check((In + J) % K, "speculative");
      }
      if (!SeqFirst) {
        SeqMs.add(App.runSequential(In));
        Check(In, "sequential");
      }
    }
    CheckAll();
    R.set("setup_s", SetupS, "s", kSetupRepeats);
    R.set("run_ms_p50", SpecMs.median(), "ms", SpecMs.size());
    R.set("run_ms_p90", SpecMs.pct(90), "ms", SpecMs.size());
    R.set("speedup", SeqMs.median() / SpecMs.median(), "x", SpecMs.size());
    // Closed loop: a run is due when the previous one completes, so a
    // job's latency is its run time and the sustained rate is one caller's.
    // A few hundred runs support a p90 but no p99 the next run repeats.
    R.set("job_ms_p50", SpecMs.median(), "ms", SpecMs.size());
    R.setJobTail(SpecMs, 90);
    R.set("max_rate_jobs_s", 1000.0 / SpecMs.mean(), "1/s", SpecMs.size());
    R.set("heap_mb", HeapMb.mean(), "MB", HeapMb.size());
    return R;
  }

  // Traced run: rotate sequential, untraced and traced speculative runs.
  // A fresh tracer every kBatch traced runs keeps its rings from wrapping.
  constexpr int kBatch = 16;
  Samples SeqMs, SpecMs, TracedMs;
  RuntimeTotals RT;
  rt::ExecutorStats ExecDelta;
  int64_t ExecRuns = 0, Mispredictions = 0, Predictions = 0;
  uint64_t Dropped = 0;
  std::unique_ptr<rt::Tracer> Tr;
  std::vector<RunSpan> Spans;
  auto Flush = [&] {
    if (!Tr)
      return;
    accumulateRuntime(Tr->snapshot(), Spans, RT);
    Dropped += Tr->droppedEvents();
    Tr.reset();
    Spans.clear();
  };
  for (int I = 0; Clock::now() < End; ++I) {
    const int In = I % K;
    for (int Step = 0; Step < 3; ++Step) {
      switch ((Step + I) % 3) {
      case 0:
        SeqMs.add(App.runSequential(In));
        Check(In, "sequential");
        break;
      case 1: {
        rt::ExecutorStats Before = Ex->stats();
        SpecMs.add(App.runSpeculative(In, Cfg, nullptr));
        ExecDelta += Ex->stats() - Before;
        ++ExecRuns;
        Check(In, "speculative");
        break;
      }
      case 2: {
        if (!Tr)
          Tr = std::make_unique<rt::Tracer>(1 << 15);
        const rt::SpecConfig Traced = rt::SpecConfig(Cfg).trace(Tr.get());
        rt::stats::Snapshot Snap;
        RunSpan S;
        S.StartNs = Tr->elapsedNs();
        TracedMs.add(App.runSpeculative(In, Traced, &Snap));
        S.EndNs = Tr->elapsedNs();
        Spans.push_back(S);
        Mispredictions += Snap.Spec.Mispredictions;
        Predictions += Snap.Spec.Predictions;
        Check(In, "traced speculative");
        if (Spans.size() == kBatch)
          Flush();
        break;
      }
      }
    }
  }
  Flush();
  CheckAll();

  R.set("workloads.gen_ms", GenMs.median(), "ms", GenMs.size());
  R.set(App.seqMetric(), SeqMs.median(), "ms", SeqMs.size());
  reportRuntimeLayers(R, RT, ExecDelta, ExecRuns, Mispredictions, Predictions,
                      SpecMs, TracedMs, Dropped, O.Workers + 1);

  // Outside the timed window: the apps layer's own measurement of the
  // first input, and the simulator fed with it, beside the measured
  // speed-up.
  apps::SegmentedMeasurement M = App.measure(0);
  double MaxWork = 0, SumWork = 0;
  for (const sim::TaskSpec &T : M.Tasks) {
    MaxWork = std::max(MaxWork, T.Work);
    SumWork += T.Work;
  }
  R.set("apps.predictor_us", M.PredictorSeconds * 1e6, "us");
  R.set("apps.segment_imbalance",
        SumWork > 0 ? MaxWork / (SumWork / double(M.Tasks.size())) : 0,
        "ratio", M.Tasks.size());
  sim::MachineParams P;
  P.NumProcs = O.Workers + 1; // the workers and the validating caller
  P.SpawnOverhead = spawnOverheadSeconds(*Ex);
  P.ValidationOverhead = P.SpawnOverhead / 4; // as fig6_speedup
  P.PredictorWork = M.PredictorSeconds;
  const double SimSpeedup = sim::simulateIteration(M.Tasks, P).Speedup;
  const double RealSpeedup = SeqMs.median() / SpecMs.median();
  R.set("simsched.speedup", SimSpeedup, "x");
  R.set("simsched.gap", SimSpeedup / RealSpeedup, "ratio");
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "speedup at P=%u: measured %.2fx (n=%zu pairs), simulated "
                "%.2fx, simulated / measured %.2f",
                O.Workers + 1, RealSpeedup, SpecMs.size(), SimSpeedup,
                SimSpeedup / RealSpeedup);
  R.note(Line);
  return R;
}

} // namespace

Report runLexJava(const Options &O) {
  LexJava App;
  return runNative(O, App);
}

Report runHuffmanMedia(const Options &O) {
  HuffmanMedia App;
  return runNative(O, App);
}

} // namespace perfbench
