//===- runtime/SpecExecutor.cpp - Work-stealing task executor -------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/SpecExecutor.h"

#include "runtime/FaultPlan.h"
#include "support/StringUtils.h"

#include <chrono>

using namespace specpar;
using namespace specpar::rt;

namespace {

/// Slot-pool batching: per-worker caches exchange slots with the global
/// pool in batches so the pool mutex is off the per-task path.
constexpr std::size_t kSlotBatch = 32;
constexpr std::size_t kSlotCacheMax = 2 * kSlotBatch;
constexpr std::size_t kSlotSlab = 64;

/// Injection ring capacity; overflow (a wave far wider than this) falls
/// back to a deque, still under the same single mutex.
constexpr std::size_t kInjectionCapacity = 1024;

/// Timed-park cap for idle workers: the eventcount protocol alone should
/// never lose a wakeup, but the executor's liveness must not hinge on
/// that proof holding under every FaultPlan jitter schedule.
constexpr std::chrono::milliseconds kWorkerParkCap(50);

} // namespace

ExecutorStats ExecutorStats::operator-(const ExecutorStats &Base) const {
  ExecutorStats D;
  D.Submits = Submits - Base.Submits;
  D.OwnPops = OwnPops - Base.OwnPops;
  D.InjectionPops = InjectionPops - Base.InjectionPops;
  D.Steals = Steals - Base.Steals;
  D.HelpRuns = HelpRuns - Base.HelpRuns;
  D.PeakQueueDepth = PeakQueueDepth;
  D.EventcountParks = EventcountParks - Base.EventcountParks;
  D.SlotPoolRefills = SlotPoolRefills - Base.SlotPoolRefills;
  return D;
}

std::string ExecutorStats::str() const {
  return formatString("submits=%llu own-pops=%llu injection-pops=%llu "
                      "steals=%llu help-runs=%llu peak-queue=%llu "
                      "parks=%llu pool-refills=%llu",
                      static_cast<unsigned long long>(Submits),
                      static_cast<unsigned long long>(OwnPops),
                      static_cast<unsigned long long>(InjectionPops),
                      static_cast<unsigned long long>(Steals),
                      static_cast<unsigned long long>(HelpRuns),
                      static_cast<unsigned long long>(PeakQueueDepth),
                      static_cast<unsigned long long>(EventcountParks),
                      static_cast<unsigned long long>(SlotPoolRefills));
}

namespace {
/// Which executor (if any) the current thread is a worker of, and its
/// worker index there. Helping from foreign threads treats the index as
/// "not a worker".
thread_local SpecExecutor *TLExecutor = nullptr;
thread_local unsigned TLWorkerIdx = ~0u;

/// Rotates the first victim non-worker helpers try, so concurrent
/// helpers don't all hammer worker 0's deque.
std::atomic<unsigned> StealCursor{0};
} // namespace

unsigned SpecExecutor::defaultThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

std::shared_ptr<SpecExecutor> SpecExecutor::create(unsigned NumThreads) {
  return std::make_shared<SpecExecutor>(NumThreads);
}

const std::shared_ptr<SpecExecutor> &SpecExecutor::defaultShard() {
  // A function-local static shared_ptr: the shard is created on first
  // use and kept alive through static destruction for any late holders
  // of a copied handle.
  static const std::shared_ptr<SpecExecutor> Shard =
      std::make_shared<SpecExecutor>(0);
  return Shard;
}


SpecExecutor::SpecExecutor(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = defaultThreads();
  Injection.Ring.resize(kInjectionCapacity);
  WorkerStates.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I) {
    WorkerStates.push_back(std::make_unique<Worker>());
    WorkerStates.back()->SlotCache.reserve(kSlotCacheMax + kSlotBatch);
  }
  // Stock the pool for every worker cache at its high-water mark plus two
  // batches. A slot is released where its task ran, not where it was
  // submitted, so worker-submitted tasks (Par-mode correctives, nested
  // runs) make slots circulate between the caches; a pool grown only on
  // demand kept adding slabs for several runs before it covered that.
  while (Pool.Free.size() < NumThreads * (kSlotCacheMax + 1) + 2 * kSlotBatch)
    addSlab();
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

SpecExecutor::~SpecExecutor() {
  Stop.store(true, std::memory_order_seq_cst);
  WorkEC.notifyAll();
  for (std::thread &W : Workers)
    W.join();
  // Slab storage (and with it every slot) is reclaimed by Pool's members.
}

bool SpecExecutor::onWorkerThread() const { return TLExecutor == this; }

void SpecExecutor::addSlab() {
  Pool.Slabs.push_back(std::make_unique<TaskSlot[]>(kSlotSlab));
  TaskSlot *Slab = Pool.Slabs.back().get();
  for (std::size_t I = 0; I < kSlotSlab; ++I)
    Pool.Free.push_back(&Slab[I]);
}

SpecExecutor::TaskSlot *SpecExecutor::acquireSlot(unsigned WorkerIdx) {
  Worker &W = *WorkerStates[WorkerIdx];
  if (!W.SlotCache.empty()) {
    TaskSlot *S = W.SlotCache.back();
    W.SlotCache.pop_back();
    return S;
  }
  std::lock_guard<std::mutex> Lock(Pool.M);
  if (Pool.Free.size() < kSlotBatch)
    addSlab();
  for (std::size_t I = 0; I + 1 < kSlotBatch; ++I) {
    W.SlotCache.push_back(Pool.Free.back());
    Pool.Free.pop_back();
  }
  RefillCount.fetch_add(1, std::memory_order_relaxed);
  TaskSlot *S = Pool.Free.back();
  Pool.Free.pop_back();
  return S;
}

void SpecExecutor::releaseSlot(TaskSlot *Slot) {
  if (onWorkerThread()) {
    Worker &W = *WorkerStates[TLWorkerIdx];
    W.SlotCache.push_back(Slot);
    if (W.SlotCache.size() > kSlotCacheMax) {
      std::lock_guard<std::mutex> Lock(Pool.M);
      for (std::size_t I = 0; I < kSlotBatch; ++I) {
        Pool.Free.push_back(W.SlotCache.back());
        W.SlotCache.pop_back();
      }
    }
    return;
  }
  std::lock_guard<std::mutex> Lock(Pool.M);
  Pool.Free.push_back(Slot);
}

void SpecExecutor::submitRef(TaskRef Task) {
  // Count the task as pending *before* it becomes poppable, so waitIdle
  // and worker-exit never observe an enqueued-but-uncounted task.
  int64_t P = Pending.fetch_add(1, std::memory_order_seq_cst) + 1;
  uint64_t Depth = static_cast<uint64_t>(P);
  uint64_t Cur = PeakQueue.load(std::memory_order_relaxed);
  while (Depth > Cur &&
         !PeakQueue.compare_exchange_weak(Cur, Depth,
                                          std::memory_order_relaxed))
    ;

  if (onWorkerThread()) {
    TaskSlot *S = acquireSlot(TLWorkerIdx);
    S->Task = std::move(Task);
    WorkerStates[TLWorkerIdx]->Deque.push(S);
  } else {
    std::lock_guard<std::mutex> Lock(Injection.M);
    if (Injection.Count < Injection.Ring.size()) {
      Injection.Ring[(Injection.Head + Injection.Count) %
                     Injection.Ring.size()] = std::move(Task);
      ++Injection.Count;
    } else {
      Injection.Overflow.push_back(std::move(Task));
    }
  }
  SubmitCount.fetch_add(1, std::memory_order_relaxed);

  // Injection site: stall between enqueue and wakeup, widening the window
  // in which sleeping workers could miss this submission (the eventcount
  // re-check protocol plus the timed park must absorb it).
  if (FaultPlan *Plan = Faults.load(std::memory_order_acquire))
    Plan->maybeDelay(FaultSite::JitterWakeup);
  WorkEC.notifyOne();
}

ExecutorStats SpecExecutor::stats() const {
  ExecutorStats S;
  S.Submits = SubmitCount.load(std::memory_order_relaxed);
  S.OwnPops = OwnPopCount.load(std::memory_order_relaxed);
  S.InjectionPops = InjectionPopCount.load(std::memory_order_relaxed);
  S.Steals = StealCount.load(std::memory_order_relaxed);
  S.HelpRuns = HelpRunCount.load(std::memory_order_relaxed);
  S.PeakQueueDepth = PeakQueue.load(std::memory_order_relaxed);
  S.EventcountParks = ParkCount.load(std::memory_order_relaxed);
  S.SlotPoolRefills = RefillCount.load(std::memory_order_relaxed);
  return S;
}

bool SpecExecutor::tryPopInjection(TaskRef &Out) {
  std::lock_guard<std::mutex> Lock(Injection.M);
  if (Injection.Count == 0)
    return false;
  Out = std::move(Injection.Ring[Injection.Head]);
  Injection.Head = (Injection.Head + 1) % Injection.Ring.size();
  --Injection.Count;
  if (!Injection.Overflow.empty()) {
    Injection.Ring[(Injection.Head + Injection.Count) %
                   Injection.Ring.size()] =
        std::move(Injection.Overflow.front());
    Injection.Overflow.pop_front();
    ++Injection.Count;
  }
  return true;
}

bool SpecExecutor::popTask(unsigned WorkerIdx, TaskRef &Out) {
  // Own deque, LIFO: chained corrective attempts run depth-first.
  if (WorkerIdx != ~0u) {
    TaskSlot *S = nullptr;
    if (WorkerStates[WorkerIdx]->Deque.pop(S)) {
      Out = std::move(S->Task);
      releaseSlot(S);
      OwnPopCount.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Injection ring: external submissions, FIFO.
  if (tryPopInjection(Out)) {
    InjectionPopCount.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // Steal from the other workers, FIFO (the oldest task is most likely
  // the root of someone else's pending work).
  unsigned N = static_cast<unsigned>(WorkerStates.size());
  unsigned Start = WorkerIdx != ~0u
                       ? WorkerIdx + 1
                       : StealCursor.fetch_add(1, std::memory_order_relaxed);
  for (unsigned K = 0; K < N; ++K) {
    unsigned V = (Start + K) % N;
    if (V == WorkerIdx)
      continue;
    TaskSlot *S = nullptr;
    if (WorkerStates[V]->Deque.steal(S)) {
      Out = std::move(S->Task);
      releaseSlot(S);
      StealCount.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void SpecExecutor::runTask(TaskRef &Task) {
  // Injection site: a popped task's start is delayed, as a preempted or
  // descheduled worker would delay it.
  if (FaultPlan *Plan = Faults.load(std::memory_order_acquire))
    Plan->maybeDelay(FaultSite::DelayTaskStart);
  Task.run();
  Task = TaskRef(); // release captures before signalling completion
  if (Pending.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    IdleEC.notifyAll();
    WorkEC.notifyAll(); // shutting-down workers re-check Pending == 0
  }
}

bool SpecExecutor::tryRunOneTask() {
  unsigned Idx = onWorkerThread() ? TLWorkerIdx : ~0u;
  TaskRef Task;
  if (!popTask(Idx, Task))
    return false;
  HelpRunCount.fetch_add(1, std::memory_order_relaxed);
  runTask(Task);
  return true;
}

void SpecExecutor::waitIdle() {
  for (;;) {
    if (Pending.load(std::memory_order_seq_cst) == 0)
      return;
    // Helping keeps waitIdle deadlock-free from worker threads and
    // shortens the wait from any thread.
    if (tryRunOneTask())
      continue;
    uint64_t Ticket = IdleEC.prepareWait();
    if (Pending.load(std::memory_order_seq_cst) == 0) {
      IdleEC.cancelWait();
      return;
    }
    IdleEC.waitFor(Ticket, std::chrono::milliseconds(1));
  }
}

void SpecExecutor::workerLoop(unsigned WorkerIdx) {
  TLExecutor = this;
  TLWorkerIdx = WorkerIdx;
  for (;;) {
    TaskRef Task;
    if (popTask(WorkerIdx, Task)) {
      runTask(Task);
      continue;
    }
    // Exit only when shutting down AND nothing is pending: queued tasks
    // always run, and a still-running task may submit more.
    if (Stop.load(std::memory_order_seq_cst) &&
        Pending.load(std::memory_order_seq_cst) == 0)
      return;
    // Injection site: dawdle between the empty scan and going to sleep —
    // a submit can land right here, and the registered-waiter re-check
    // below is what keeps the worker from sleeping through it.
    if (FaultPlan *Plan = Faults.load(std::memory_order_acquire))
      Plan->maybeDelay(FaultSite::JitterWakeup);
    uint64_t Ticket = WorkEC.prepareWait();
    if (popTask(WorkerIdx, Task)) {
      WorkEC.cancelWait();
      runTask(Task);
      continue;
    }
    if (Stop.load(std::memory_order_seq_cst) &&
        Pending.load(std::memory_order_seq_cst) == 0) {
      WorkEC.cancelWait();
      return;
    }
    ParkCount.fetch_add(1, std::memory_order_relaxed);
    WorkEC.waitFor(Ticket, kWorkerParkCap);
  }
}
