//===- tests/hotpath_test.cpp - Lock-free hot path stress tests -----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Stress and contract tests for the lock-free hot path: the Chase–Lev
// stealing deque (growth and index wraparound under concurrent thieves),
// the executor's steal storm with concurrent helping re-entry, TaskRef's
// small-buffer allocation contract, the adaptive chunk autotuner, and —
// the headline perf contract — zero steady-state heap allocations per
// chunk in a speculative run (global operator new/delete counting hooks).
//
// Runs under -DSPECPAR_SANITIZE=thread and address (the sanitize-smoke
// CTest label): the deque and eventcount memory orders are chosen to be
// TSan-provable, and this binary is the proof obligation.
//
//===----------------------------------------------------------------------===//

#include "runtime/ChaseLevDeque.h"
#include "runtime/EventCount.h"
#include "runtime/SpecExecutor.h"
#include "runtime/Speculation.h"
#include "runtime/TaskRef.h"
#include "runtime/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

using namespace specpar::rt;

//===----------------------------------------------------------------------===//
// Global allocation counting hooks. Counting is off by default (gtest and
// the runtime may allocate freely); tests turn it on around a window and
// read the delta. Thread-safe: any thread's allocation counts.
//===----------------------------------------------------------------------===//

namespace {
std::atomic<bool> GCountAllocs{false};
std::atomic<int64_t> GAllocCount{0};

void *countedAlloc(std::size_t Size) {
  if (GCountAllocs.load(std::memory_order_relaxed))
    GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (Size == 0)
    Size = 1;
  if (void *P = std::malloc(Size))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

int64_t allocsSinceMark(int64_t Mark) {
  return GAllocCount.load(std::memory_order_relaxed) - Mark;
}

//===----------------------------------------------------------------------===//
// ChaseLevDeque
//===----------------------------------------------------------------------===//

TEST(ChaseLevDeque, OwnerLifoOrderAndGrowth) {
  ChaseLevDeque<int64_t> D(/*InitialCapacity=*/2);
  const int64_t N = 1000;
  for (int64_t I = 0; I < N; ++I)
    D.push(I);
  EXPECT_GE(D.grows(), 1u);
  EXPECT_GE(D.capacity(), static_cast<size_t>(N));
  // Owner pops are LIFO.
  for (int64_t I = N - 1; I >= 0; --I) {
    int64_t V = -1;
    ASSERT_TRUE(D.pop(V));
    EXPECT_EQ(V, I);
  }
  int64_t V = -1;
  EXPECT_FALSE(D.pop(V));
}

TEST(ChaseLevDeque, StealIsFifoFromTheTop) {
  ChaseLevDeque<int64_t> D;
  for (int64_t I = 0; I < 10; ++I)
    D.push(I);
  for (int64_t I = 0; I < 10; ++I) {
    int64_t V = -1;
    ASSERT_TRUE(D.steal(V));
    EXPECT_EQ(V, I);
  }
  int64_t V = -1;
  EXPECT_FALSE(D.steal(V));
}

// The ABA/wraparound test: a tiny ring forced through many index
// wraparounds and several growths while two thieves race the owner. Every
// pushed value must be consumed exactly once — a stale ring read whose
// CAS wrongly succeeded, or a lost element across grow(), shows up as a
// duplicate or a hole.
TEST(ChaseLevDeque, WraparoundUnderConcurrentStealsLosesNothing) {
  ChaseLevDeque<int64_t> D(/*InitialCapacity=*/2);
  const int64_t N = 60000;
  std::vector<std::atomic<int>> Seen(static_cast<size_t>(N));
  for (auto &S : Seen)
    S.store(0, std::memory_order_relaxed);
  std::atomic<int64_t> Consumed{0};
  std::atomic<bool> Done{false};

  auto Consume = [&](int64_t V) {
    Seen[static_cast<size_t>(V)].fetch_add(1, std::memory_order_relaxed);
    Consumed.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> Thieves;
  for (int TIdx = 0; TIdx < 2; ++TIdx)
    Thieves.emplace_back([&] {
      int64_t V = -1;
      while (!Done.load(std::memory_order_acquire)) {
        if (D.steal(V))
          Consume(V);
        else
          std::this_thread::yield();
      }
      // Final sweep after the owner stopped.
      while (D.steal(V))
        Consume(V);
    });

  // Owner: push two, pop one — Bottom/Top advance monotonically, so the
  // small ring wraps thousands of times while thieves chase Top.
  int64_t Next = 0;
  while (Next < N) {
    D.push(Next++);
    if (Next < N)
      D.push(Next++);
    int64_t V = -1;
    if (D.pop(V))
      Consume(V);
  }
  Done.store(true, std::memory_order_release);
  for (auto &Th : Thieves)
    Th.join();
  // Owner drains what the thieves left.
  int64_t V = -1;
  while (D.pop(V))
    Consume(V);

  EXPECT_EQ(Consumed.load(), N);
  for (int64_t I = 0; I < N; ++I)
    ASSERT_EQ(Seen[static_cast<size_t>(I)].load(), 1) << "value " << I;
}

//===----------------------------------------------------------------------===//
// TaskRef
//===----------------------------------------------------------------------===//

TEST(TaskRef, SmallCapturesAreInlineAndAllocationFree) {
  int64_t A = 0, B = 0;
  int64_t *PA = &A, *PB = &B;
  const int64_t Mark = GAllocCount.load();
  GCountAllocs.store(true);
  {
    TaskRef T([PA, PB] {
      *PA = 1;
      *PB = 2;
    });
    TaskRef T2(std::move(T));
    T2.run();
  }
  GCountAllocs.store(false);
  EXPECT_EQ(allocsSinceMark(Mark), 0);
  EXPECT_EQ(A, 1);
  EXPECT_EQ(B, 2);
}

TEST(TaskRef, OversizedCapturesFallBackToOneHeapAllocation) {
  struct Big {
    char Pad[96];
  };
  Big Payload{};
  Payload.Pad[0] = 7;
  std::atomic<int> Ran{0};
  const int64_t Mark = GAllocCount.load();
  GCountAllocs.store(true);
  {
    TaskRef T([Payload, &Ran] { Ran += Payload.Pad[0]; });
    T.run();
  }
  GCountAllocs.store(false);
  EXPECT_EQ(allocsSinceMark(Mark), 1);
  EXPECT_EQ(Ran.load(), 7);
}

//===----------------------------------------------------------------------===//
// Executor steal storm
//===----------------------------------------------------------------------===//

// One worker's deque is loaded with a burst of tasks while the producing
// task busy-waits (without helping), so every task must be *stolen* — by
// the other workers and by the main thread's concurrent tryRunOneTask()
// helping re-entry. Checks full conservation (every task runs exactly
// once) and that the pop-path accounting adds up.
TEST(ExecutorStealStorm, BurstFromOneWorkerIsFullyStolen) {
  SpecExecutor Ex(4);
  const ExecutorStats Before = Ex.stats();
  const int N = 4000;
  std::atomic<int> Ran{0};
  std::atomic<bool> ProducerStarted{false};
  std::atomic<bool> ProducerDone{false};

  Ex.submit([&Ex, &Ran, &ProducerStarted, &ProducerDone, N] {
    ProducerStarted.store(true, std::memory_order_release);
    for (int I = 0; I < N; ++I)
      Ex.submit([&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
    // Busy-wait without helping: this worker never pops its own deque, so
    // thieves drain all N tasks.
    const auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (Ran.load(std::memory_order_relaxed) < N &&
           std::chrono::steady_clock::now() < Deadline)
      std::this_thread::yield();
    ProducerDone.store(true, std::memory_order_release);
  });

  // Wait (without helping) until a *worker* has claimed the producer —
  // helping too early would run the producer on this non-worker thread,
  // routing the burst through the injection ring instead of a deque.
  while (!ProducerStarted.load(std::memory_order_acquire))
    std::this_thread::yield();
  // Main thread helps concurrently — non-worker helping steals.
  while (!ProducerDone.load(std::memory_order_acquire)) {
    if (!Ex.tryRunOneTask())
      std::this_thread::yield();
  }
  Ex.waitIdle();
  EXPECT_EQ(Ran.load(), N);

  const ExecutorStats D = Ex.stats() - Before;
  // N burst tasks + the producer task itself.
  EXPECT_EQ(D.Submits, static_cast<uint64_t>(N) + 1);
  // Every executed task was popped exactly once, via exactly one path.
  EXPECT_EQ(D.OwnPops + D.InjectionPops + D.Steals,
            static_cast<uint64_t>(N) + 1);
  // The producer never popped: all N burst tasks were stolen.
  EXPECT_GE(D.Steals, static_cast<uint64_t>(N));
}

// Nested help() re-entry under the storm: tasks themselves call
// tryRunOneTask() while the queues churn.
TEST(ExecutorStealStorm, HelpingReentryInsideTasksIsSafe) {
  SpecExecutor Ex(3);
  const int N = 2000;
  std::atomic<int> Ran{0};
  for (int I = 0; I < N; ++I)
    Ex.submit([&Ex, &Ran] {
      Ran.fetch_add(1, std::memory_order_relaxed);
      // Re-entrant helping from inside a task.
      Ex.tryRunOneTask();
    });
  Ex.waitIdle();
  EXPECT_EQ(Ran.load(), N);
}

//===----------------------------------------------------------------------===//
// Zero steady-state allocations per chunk
//===----------------------------------------------------------------------===//

// The headline contract of the slot-owned attempt lifecycle: once a run
// is in steady state (executor rings allocated), iterating 10^4+ chunks
// performs zero heap allocations — attempts are reset in place in their
// wave slots, thunks fit TaskRef's inline storage, and the executor's
// injection ring and task slots recirculate. Par mode runs with a
// predictor that is wrong at every 7th chunk, so correctives are chained
// into the next slot inside the counting window.
TEST(ZeroAlloc, SteadyStateChunkIterationDoesNotTouchTheHeap) {
  SpecExecutor Ex(2);
  const int64_t N = 20000;
  const int64_t Chunk = 4;

  for (ValidationMode Mode : {ValidationMode::Seq, ValidationMode::Par}) {
    const bool Par = Mode == ValidationMode::Par;
    SCOPED_TRACE(Par ? "Par" : "Seq");
    auto Predictor = [Par, Chunk](int64_t I) {
      const int64_t Exact = I * (I - 1) / 2;
      return Par && I > 0 && (I / Chunk) % 7 == 0 ? Exact + 1 : Exact;
    };
    const SpecConfig Cfg = SpecConfig().executor(Ex).mode(Mode);
    auto RunOnce = [&] {
      return Speculation::iterateChunked<int64_t>(
          0, N, Chunk, [](int64_t I, int64_t Acc) { return Acc + I; },
          Predictor, Cfg);
    };
    // Warm-up run: slab allocations, ring growth, lazy libc init.
    const SpecResult<int64_t> Warm = RunOnce();
    EXPECT_EQ(Warm.Value, N * (N - 1) / 2);

    // Measured run: count allocations over the middle 60% of the
    // iteration space (the engine's own setup/teardown sits outside the
    // window).
    const int64_t Mark = GAllocCount.load();
    auto R = Speculation::iterateChunked<int64_t>(
        0, N, Chunk,
        [N](int64_t I, int64_t Acc) {
          if (I == N / 5)
            GCountAllocs.store(true, std::memory_order_relaxed);
          if (I == (4 * N) / 5)
            GCountAllocs.store(false, std::memory_order_relaxed);
          return Acc + I;
        },
        Predictor, Cfg);
    GCountAllocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(R.Value, N * (N - 1) / 2);
    if (Par)
      EXPECT_GT(R.Stats.Tasks, N / Chunk) << "no corrective was chained";
    else
      EXPECT_EQ(R.Stats.Tasks, N / Chunk);
    EXPECT_EQ(allocsSinceMark(Mark), 0)
        << "steady-state chunk iteration allocated";
  }
}

// The same contract for apply(): the attempt record lives on the
// caller's stack and the task thunk captures one pointer, so once the
// executor's rings are warm a call performs zero heap allocations.
TEST(ZeroAlloc, SteadyStateApplyDoesNotTouchTheHeap) {
  const std::shared_ptr<SpecExecutor> Ex = SpecExecutor::create(2);
  const SpecConfig Cfg = SpecConfig().executor(Ex);
  std::atomic<int64_t> Sum{0};
  auto ApplyOnce = [&](int I) {
    // Every third call mispredicts, covering the cancel-and-re-execute
    // path as well as acceptance.
    return Speculation::apply<int>(
        [I] { return I; }, [I] { return I % 3 == 0 ? -1 : I; },
        [&Sum](int V) {
          if (V >= 0) // the mispredicted speculative run adds nothing
            Sum.fetch_add(V, std::memory_order_relaxed);
        },
        Cfg);
  };
  for (int I = 0; I < 200; ++I)
    ApplyOnce(I);

  const int Calls = 1000;
  int64_t Mispredictions = 0;
  Sum.store(0);
  const int64_t Mark = GAllocCount.load();
  GCountAllocs.store(true, std::memory_order_relaxed);
  for (int I = 0; I < Calls; ++I)
    Mispredictions += ApplyOnce(I).Stats.Mispredictions;
  GCountAllocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(allocsSinceMark(Mark), 0) << "steady-state apply allocated";
  EXPECT_EQ(Sum.load(), int64_t(Calls) * (Calls - 1) / 2);
  EXPECT_EQ(Mispredictions, (Calls + 2) / 3);
}

//===----------------------------------------------------------------------===//
// Autotuner
//===----------------------------------------------------------------------===//

TEST(Autotune, GrowsChunksWhenBodiesUndershootTheTarget) {
  Tracer Tr;
  const int64_t N = 8000;
  // Trivial bodies against a 10ms target: every wave undershoots, so the
  // controller doubles the chunk until its ceiling; the result must stay
  // exact and at least one Autotune event must fire.
  auto R = Speculation::iterateChunked<int64_t>(
      0, N, /*ChunkSize=*/1,
      [](int64_t I, int64_t Acc) { return Acc + I; },
      [](int64_t I) { return I * (I - 1) / 2; },
      SpecConfig().threads(2).autotune(/*TargetChunkMicros=*/10000).trace(
          &Tr));
  EXPECT_EQ(R.Value, N * (N - 1) / 2);
  int64_t AutotuneEvents = 0;
  int64_t LastSize = 1;
  for (const SpecEvent &E : Tr.snapshot())
    if (E.Kind == SpecEventKind::Autotune) {
      ++AutotuneEvents;
      EXPECT_GT(E.Index, LastSize) << "undershoot must only grow the chunk";
      LastSize = E.Index;
    }
  EXPECT_GE(AutotuneEvents, 1);
  // Fewer, larger segments: far fewer tasks than one per initial chunk.
  EXPECT_LT(R.Stats.Tasks, N / 2);
  EXPECT_GT(R.Stats.Tasks, 0);
}

TEST(Autotune, OffByDefaultKeepsTheFixedChunkGrid) {
  const int64_t N = 640;
  auto R = Speculation::iterateChunked<int64_t>(
      0, N, /*ChunkSize=*/8, [](int64_t I, int64_t Acc) { return Acc + I; },
      [](int64_t I) { return I * (I - 1) / 2; }, SpecConfig().threads(2));
  EXPECT_EQ(R.Value, N * (N - 1) / 2);
  // Exactly one task per fixed chunk and one prediction per boundary.
  EXPECT_EQ(R.Stats.Tasks, N / 8);
  EXPECT_EQ(R.Stats.Predictions, N / 8 - 1);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
}

TEST(Autotune, NeverAppliesToPlainIterate) {
  Tracer Tr;
  const int64_t N = 200;
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t Acc) { return Acc + I; },
      [](int64_t I) { return I * (I - 1) / 2; },
      SpecConfig().threads(2).autotune(10000).trace(&Tr));
  EXPECT_EQ(R.Value, N * (N - 1) / 2);
  for (const SpecEvent &E : Tr.snapshot())
    EXPECT_NE(E.Kind, SpecEventKind::Autotune);
  // Per-iteration granularity is preserved.
  EXPECT_EQ(R.Stats.Predictions, N - 1);
}

TEST(Autotune, ShrinksChunksUnderSustainedMisprediction) {
  // Every boundary mispredicts, so the run degenerates into thousands of
  // re-executed chunk-1 segments — size the per-thread event rings so the
  // early (shrinking) Autotune events survive until snapshot().
  Tracer Tr(1 << 18);
  const int64_t N = 4096;
  // A predictor that is wrong at every boundary: bad-rate 100% per wave,
  // so the controller halves (already at the floor of 1 here — use a
  // larger initial chunk to observe shrinking).
  auto R = Speculation::iterateChunked<int64_t>(
      0, N, /*ChunkSize=*/64,
      [](int64_t, int64_t Acc) { return Acc + 1; }, [](int64_t) {
        return static_cast<int64_t>(-1); // always wrong (true acc is >= 0)
      },
      SpecConfig().threads(2).autotune(/*TargetChunkMicros=*/1).trace(&Tr));
  EXPECT_EQ(R.Value, -1 + N); // Predictor(0) = -1 seeds the fold
  bool SawShrink = false;
  int64_t Prev = 64;
  for (const SpecEvent &E : Tr.snapshot())
    if (E.Kind == SpecEventKind::Autotune) {
      if (E.Index < Prev)
        SawShrink = true;
      Prev = E.Index;
    }
  EXPECT_TRUE(SawShrink);
}

//===----------------------------------------------------------------------===//
// EventCount
//===----------------------------------------------------------------------===//

TEST(EventCount, WakesParkedWaiter) {
  EventCount EC;
  std::atomic<bool> Flag{false};
  std::thread Waiter([&] {
    while (!Flag.load(std::memory_order_seq_cst)) {
      const uint64_t Ticket = EC.prepareWait();
      if (Flag.load(std::memory_order_seq_cst)) {
        EC.cancelWait();
        return;
      }
      EC.wait(Ticket);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Flag.store(true, std::memory_order_seq_cst);
  EC.notifyAll();
  Waiter.join();
  SUCCEED();
}

TEST(EventCount, TimedWaitReturnsWithoutNotify) {
  EventCount EC;
  const uint64_t Ticket = EC.prepareWait();
  const auto T0 = std::chrono::steady_clock::now();
  const bool Notified = EC.waitFor(Ticket, std::chrono::milliseconds(20));
  EXPECT_FALSE(Notified);
  EXPECT_GE(std::chrono::steady_clock::now() - T0,
            std::chrono::milliseconds(15));
}

} // namespace
