//===- runtime/Speculation.h - Programmable value speculation ---*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C++ analogue of the paper's C# Speculation library (Section 4,
/// Figure 3):
///
///  * `Speculation::apply`    — speculative composition (`spec p g c`)
///  * `Speculation::iterate`  — speculative iteration (`specfold f g l u`),
///    in the plain form and the local initializer/finalizer form, with
///    sequential (`Seq`) and parallel (`Par`) validation modes;
///  * `Speculation::iterateChunked` / `iterateChunkedLocal` — segmented
///    speculative iteration: iterations are grouped into chunks, the
///    loop-carried value is predicted once per *chunk*, and the chunk's
///    iterations run sequentially inside one speculative attempt, so the
///    per-task overhead amortizes over the chunk (the way the paper's
///    segment experiments assume).
///
/// Calls are configured with a fluent `SpecConfig` and return a
/// `SpecResult<T>` carrying the value and the run's `SpeculationStats`:
///
///   auto R = Speculation::iterate<int64_t>(0, N, Body, Predictor,
///                SpecConfig().threads(8).mode(ValidationMode::Par));
///   use(R.Value, R.Stats);
///
/// By default runs execute on the process's default executor shard
/// (`SpecExecutor::defaultShard()`): the executor's cooperative helping
/// makes *nested* speculation on one shared executor deadlock-free, so a
/// long-lived process no longer needs transient per-run pools. Callers
/// that care about placement or lifetime name their executor explicitly
/// — `SpecConfig::executor(SpecExecutor::create(N))` — and the config
/// shares ownership of the handle.
///
/// Semantics mirror the paper:
///  * the prediction function g is indexed by the iteration and g(Low) is
///    the (non-speculative) initial value of the loop-carried state;
///  * predictions are validated with a user-overridable equality;
///  * mispredicted iterations are re-executed with the correct input — no
///    rollback of side effects, which is exactly what the rollback-freedom
///    conditions (Section 3.2) license. The validator quiesces each
///    iteration's attempts before accepting or re-executing, and attempts
///    of one iteration never run concurrently with each other, so for
///    condition-(a)-(e) programs the accepted execution's writes are the
///    final writes and runs are free of data races (ThreadSanitizer-clean);
///  * sequential exception semantics: the exception of the first *valid*
///    iteration propagates; exceptions of code speculatively executed with
///    wrong inputs are suppressed;
///  * cancellation is cooperative (like the paper's TPL-based
///    implementation): speculative bodies may poll
///    `currentTaskCancelled()` to stop early once invalidated.
///
/// Exception contracts of the user callbacks:
///  * a throwing *predictor* at a speculative prediction point is a
///    *failed prediction* (`SpeculationStats::FailedPredictions`): no
///    attempt is dispatched for that point and the validator executes it
///    in order. `Predictor(Low)` — the non-speculative initial value —
///    propagates;
///  * a throwing *equality comparator* never propagates from a
///    speculative validation path: the comparison is treated
///    pessimistically (prediction failed / inputs differ), the affected
///    iteration is re-executed with the correct input, and the prediction
///    point counts under `FailedPredictions`;
///  * a throwing *body* propagates only from the first valid iteration
///    (sequential semantics); a throwing *finalizer* propagates after
///    in-flight attempts are cancelled and drained, and no later
///    finalizer runs.
///
/// Robustness (this header + runtime/FaultPlan.h):
///  * `SpecConfig::faults(&Plan)` installs a seeded deterministic
///    `FaultPlan` whose named sites (predictor/body/comparator throws,
///    forced mispredictions, spurious cancellations) exercise the
///    contracts above from inside the runtime; with none installed every
///    site is a single pointer test, mirroring the tracer;
///  * `SpecConfig::deadline(budget)` arms a cooperative deadline: bodies
///    observe it through `currentTaskCancelled()`, and the run throws
///    `SpecTimeoutError` after cancelling and draining every in-flight
///    attempt — no task is ever leaked. Under rollback freedom the
///    abandoned partial work is unobservable (validated finalizers that
///    already ran stay run);
///  * `SpecConfig::degrade(rate, window)` arms the adaptive sequential
///    fallback: when the misprediction/failure rate over a sliding window
///    of prediction points exceeds `rate`, the run stops speculating,
///    cancels in-flight attempts, and executes the remaining segments
///    in-order on the calling thread (`SpeculationStats::DegradedChunks`,
///    `SpecEventKind::Degrade`) — each remaining segment executes exactly
///    once, never speculatively plus again. With profile-guided
///    prediction armed, a trip first tries to *switch predictor
///    candidates* (see below) and only degrades when no better candidate
///    exists;
///  * `SpecConfig::statsOut(&Snap)` publishes the run's statistics — a
///    `stats::Snapshot` pairing the speculation counters with the
///    resolved executor's activity delta — even when the run throws
///    (timeout, user exception, injected fault).
///
/// Observability: `SpecConfig::trace(&Tracer)` installs an event sink
/// (runtime/Telemetry.h) that records the whole attempt lifecycle —
/// dispatch, start, finish, cancel, Par-mode chaining, validate-accept,
/// misprediction, re-execution, finalize, degrade, timeout — exportable
/// as a Chrome trace_event timeline. With no sink installed every
/// instrumentation site is a single pointer test.
///
/// Profile-guided prediction (runtime/ProfileStore.h):
/// `SpecConfig::profile(&Store).profileSite("lex.main")` attaches the run
/// to a persistent per-call-site profile. A *warm* site seeds the
/// autotuner's initial chunk size from the previously converged value and
/// starts with the historically best predictor candidate — the caller's
/// predictor, last-value, or (for arithmetic T) stride — traced as
/// `SpecEventKind::ProfileSeed` and counted in
/// `SpeculationStats::ProfileSeeds`. During the run all candidates are
/// shadow-tallied at each validated prediction point, and a degrade-
/// monitor trip switches to a better candidate online
/// (`SpecEventKind::PredictorSwitch`) before surrendering to sequential
/// execution. At run end the observations fold back into the store; the
/// caller persists it with `ProfileStore::save()`.
///
/// Executor ownership is explicit: `SpecConfig::executor()` takes a
/// reference-counted `std::shared_ptr<SpecExecutor>` (or a borrowed
/// reference the caller guarantees outlives the run); with none set, the
/// run resolves to a transient executor (`threads(N > 0)`) or the
/// process's default shard, `SpecExecutor::defaultShard()`. The
/// pre-redesign `Options` overloads and the one-release deprecated
/// forwards (`sharedExecutor()`, the `SpeculationStats*` stats sink) are
/// gone — see docs/runtime-api.md for the migration table.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_SPECULATION_H
#define SPECPAR_RUNTIME_SPECULATION_H

#include "runtime/EventCount.h"
#include "runtime/FaultPlan.h"
#include "runtime/ProfileStore.h"
#include "runtime/SignalShield.h"
#include "runtime/SpecExecutor.h"
#include "runtime/Stats.h"
#include "runtime/Telemetry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace specpar {
namespace rt {

/// How speculative iterations are validated (paper Section 4).
/// `Seq`: iterations are validated strictly in order by the calling thread.
/// `Par`: as soon as iteration i-1 completes *speculatively*, iteration i is
/// re-dispatched with i-1's speculative output if that output contradicts
/// the prediction — validation work overlaps with speculation.
enum class ValidationMode { Seq, Par };

/// Thrown by a speculative run whose `SpecConfig::deadline()` expired.
/// By the time it propagates every in-flight attempt has been cancelled
/// and drained — the run leaks no task. Deadlines are cooperative:
/// expiration is observed at the runtime's own wait/validation points and
/// by bodies polling `currentTaskCancelled()`; a body that never polls
/// can overrun its budget.
class SpecTimeoutError : public std::runtime_error {
public:
  explicit SpecTimeoutError(std::chrono::nanoseconds Budget)
      : std::runtime_error(
            "speculative run exceeded its deadline (" +
            std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                               Budget)
                               .count()) +
            " ms budget)"),
        Budget(Budget) {}
  /// The configured budget (SpecConfig::deadline()), not the overrun.
  const std::chrono::nanoseconds Budget;
};

/// The result of a speculative run: the computed value plus the run's
/// statistics.
template <typename T> struct SpecResult {
  T Value;
  SpeculationStats Stats;
};

/// apply() acts by side effect, so its result is statistics only.
template <> struct SpecResult<void> { SpeculationStats Stats; };

/// Fluent configuration for a speculative run.
///
///   SpecConfig().threads(8).mode(ValidationMode::Par).executor(Shard)
///
/// Executor resolution order:
///  1. an explicit `executor(...)` wins — either an owning
///     `std::shared_ptr<SpecExecutor>` handle (the config shares
///     ownership, so the executor outlives every run configured with it)
///     or a borrowed `SpecExecutor &` the caller keeps alive;
///  2. otherwise `threads(N)` with N > 0 creates a transient N-worker
///     executor for this one run;
///  3. otherwise (the default, equivalently `threads(0)` = "one worker
///     per hardware thread") the run uses the process's default shard,
///     `SpecExecutor::defaultShard()`, which has exactly
///     `std::thread::hardware_concurrency()` workers.
class SpecConfig {
public:
  SpecConfig() = default;

  /// Worker threads for a transient executor; `0` (the default) means
  /// "use std::thread::hardware_concurrency()" via the process's default
  /// shard. Ignored when an explicit executor is set.
  SpecConfig &threads(unsigned N) {
    NumThreads = N;
    return *this;
  }
  /// Validation mode for iterate()/iterateChunked().
  SpecConfig &mode(ValidationMode M) {
    Mode = M;
    return *this;
  }
  /// Runs on \p E instead of a transient or the default-shard executor.
  /// The config shares ownership of the handle: the executor cannot be
  /// destroyed out from under a run (or a queued job holding a copy of
  /// this config). Sharing one executor between concurrent and *nested*
  /// runs is safe: a run that blocks inside the executor helps drain
  /// queued tasks.
  SpecConfig &executor(std::shared_ptr<SpecExecutor> E) {
    Ex = std::move(E);
    return *this;
  }
  /// Borrowing overload: runs on \p E without taking ownership. The
  /// caller guarantees \p E outlives every run configured with this
  /// config (the typical case: a stack-owned executor in a test or
  /// bench).
  SpecConfig &executor(SpecExecutor &E) {
    // Aliasing handle: shares no control block, never deletes.
    Ex = std::shared_ptr<SpecExecutor>(std::shared_ptr<void>(), &E);
    return *this;
  }
  /// apply() only — the paper's Section 3.3 termination fix: when the
  /// producer finishes before the predictor has produced a guess, abort
  /// the speculation (cancel predictor + speculative consumer) and run
  /// the consumer with the real value instead of waiting.
  SpecConfig &eagerProducerAbort(bool B = true) {
    EagerAbort = B;
    return *this;
  }
  /// Installs \p T as the run's event sink: the runtime records the full
  /// attempt lifecycle (dispatch/start/finish/cancel/chain/validate/
  /// mispredict/re-execute/finalize/degrade/timeout) into it. The tracer
  /// must outlive the run. With no sink (the default) tracing costs one
  /// pointer test per instrumentation site — nothing is allocated or
  /// synchronized.
  SpecConfig &trace(Tracer *T) {
    TraceSink = T;
    return *this;
  }
  /// Installs \p P as the run's fault-injection plan for the
  /// Speculation-level sites (throws, forced mispredictions, spurious
  /// cancellations — see runtime/FaultPlan.h). The plan must outlive the
  /// run. When the run creates a *transient* executor (`threads(N > 0)`
  /// without `executor()`), the plan is also installed on it, arming the
  /// executor timing sites for exactly this run; a shared or explicit
  /// executor is left alone — arm it yourself with
  /// `SpecExecutor::injectFaults()` if desired. With no plan (the
  /// default) every site is a single pointer test.
  SpecConfig &faults(FaultPlan *P) {
    FaultSink = P;
    return *this;
  }
  /// Arms a cooperative deadline: the run may spend at most \p Budget
  /// from the moment it starts. Speculative bodies observe expiry through
  /// `currentTaskCancelled()`; the validator observes it at every wait
  /// and chunk boundary, then cancels and drains all in-flight attempts
  /// and throws `SpecTimeoutError`. `0` (the default) means no deadline.
  /// Nested runs inherit the tighter of their own and the enclosing
  /// attempt's deadline.
  SpecConfig &deadline(std::chrono::nanoseconds Budget) {
    Deadline = Budget;
    return *this;
  }
  /// Arms the adaptive sequential fallback: over a sliding window of the
  /// last \p Window prediction points, if the fraction that resolved
  /// badly (mispredicted or failed) exceeds \p MaxBadRate, the run stops
  /// dispatching speculation, cancels what is in flight, and executes the
  /// remaining iterations/chunks in order on the calling thread. Each
  /// degraded segment runs exactly once (counted in
  /// `SpeculationStats::DegradedChunks`, traced as `Degrade`; with the
  /// autotuner armed these are segments of the *dynamic* grid in use at
  /// the trip, FinalChunk wide). A negative
  /// \p MaxBadRate (the default) disables the monitor; `degrade(0.0)`
  /// degrades on the first bad window. With profile-guided prediction
  /// armed (profile()/profileSite()), a trip switches to a better
  /// predictor candidate when one exists instead of degrading.
  SpecConfig &degrade(double MaxBadRate, int Window = 8) {
    DegradeThresh = MaxBadRate;
    DegradeWin = Window < 1 ? 1 : Window;
    return *this;
  }
  /// Publishes the run's statistics into \p S when the run ends — on
  /// success *and* on every throwing path (user exception, injected
  /// fault, SpecTimeoutError), where the SpecResult carrying them never
  /// materializes. The snapshot's `Spec` half is the run's speculation
  /// counters; its `Exec` half is the resolved executor's activity delta
  /// across exactly this run. \p S must outlive the run.
  SpecConfig &statsOut(stats::Snapshot *S) {
    SnapSink = S;
    return *this;
  }
  /// Attaches the run to \p P, the persistent profile-guided prediction
  /// store (runtime/ProfileStore.h). Takes effect only together with a
  /// non-empty `profileSite()`: the pair (store, site) is what seeds the
  /// initial chunk size and predictor candidate on a warm site, enables
  /// online predictor switching at degrade trips, and receives the run's
  /// observations when it ends. \p P must outlive the run; it is touched
  /// once at run start and once at run end, never per wave.
  SpecConfig &profile(ProfileStore *P) {
    Prof = P;
    return *this;
  }
  /// Names the call site in the profile store — any stable string the
  /// caller picks ("lex.main", "tenantA/mwis"). Runs configured with the
  /// same site share one learning curve.
  SpecConfig &profileSite(std::string S) {
    Site = std::move(S);
    return *this;
  }
  /// Arms the adaptive chunk autotuner for the *chunked* iteration forms:
  /// ChunkSize becomes the initial granularity and the runtime re-sizes
  /// chunks between scheduling waves, aiming at chunk bodies of roughly
  /// \p TargetChunkMicros each — it doubles the chunk when bodies run
  /// much shorter than the target (dispatch overhead dominating), halves
  /// it when they run much longer (lost parallelism / stale predictions)
  /// or when more than half of a wave's prediction points resolve badly
  /// (smaller chunks re-validate sooner). Resizes are traced as
  /// `SpecEventKind::Autotune` with the new chunk size as the index.
  /// `0` (the default) disables the autotuner: chunk boundaries are then
  /// exactly the fixed `[Low + c*ChunkSize, ...)` grid, and per-chunk
  /// statistics keep their fixed-grid meaning. With autotuning on, chunk
  /// ordinals (finalizer indices, telemetry indices, stats granularity)
  /// follow the *dynamic* segmentation — in particular
  /// `SpeculationStats::DegradedChunks` counts the dynamic segments the
  /// sequential fallback actually executed (each matching one `Degrade`
  /// trace event), and `SpeculationStats::FinalChunk` reports the chunk
  /// size those segments were cut at (the last `Autotune` resize, or the
  /// initial/seeded size when none fired). Plain (unchunked) iterate()
  /// is never autotuned — its per-iteration init/finalize contract fixes
  /// the granularity.
  SpecConfig &autotune(int64_t TargetChunkMicros) {
    AutotuneUs = TargetChunkMicros < 0 ? 0 : TargetChunkMicros;
    return *this;
  }
  /// Arms the per-thread signal shield around *speculative* attempt
  /// bodies: a SIGSEGV/SIGBUS/SIGFPE raised while a speculative attempt
  /// runs is contained (`siglongjmp` out of the body), the attempt is
  /// discarded like a misprediction, and the chunk re-executes
  /// non-speculatively (`SpeculationStats::ContainedCrashes`,
  /// `SpecEventKind::CrashContained`). The authoritative re-execution
  /// and degraded sequential paths keep default crash semantics — a
  /// crash there is a real bug. Destructors of locals in the crashed
  /// body's skipped frames do not run; bodies that own resources across
  /// a crash-prone region should not opt in. Implied by attemptBudget()
  /// and attemptBudgetAuto().
  SpecConfig &shield(bool B = true) {
    ShieldOn = B;
    return *this;
  }
  /// Time-boxes each speculative attempt to \p Budget: past it, the
  /// runaway watchdog first sets the attempt's cooperative cancel flag
  /// (bodies polling `currentTaskCancelled()` bail normally), then — if
  /// the body is still running a grace period later — forces
  /// abandonment via the shield (`SpecEventKind::RunawayCancel`,
  /// `SpeculationStats::RunawayCancels`). Implies shield(). `0` (the
  /// default) disarms the watchdog.
  SpecConfig &attemptBudget(std::chrono::nanoseconds Budget) {
    BudgetNs = Budget.count() < 0 ? 0 : Budget.count();
    return *this;
  }
  /// Derives the per-attempt budget adaptively: \p Mult times the
  /// exponentially-weighted average of observed chunk-body latencies
  /// (floored at 1 ms, so startup jitter never trips it). An explicit
  /// attemptBudget() takes precedence. Implies shield(). `0` disables
  /// (the default); the suggested multiplier is 8.
  SpecConfig &attemptBudgetAuto(double Mult = 8.0) {
    BudgetAutoMult = Mult < 0 ? 0 : Mult;
    return *this;
  }
  /// Stamps every trace event this run records with \p Ctx (see
  /// `rt::TraceContext`): the serving layer mints one per admitted job so
  /// the job's attempts remain reassemblable — across retries and shards
  /// — from the retained rings. The default zero context stamps nothing.
  SpecConfig &traceContext(TraceContext Ctx) {
    TraceCtx = Ctx;
    return *this;
  }

  unsigned threads() const { return NumThreads; }
  ValidationMode mode() const { return Mode; }
  /// The explicitly configured executor (nullptr when none was set).
  SpecExecutor *executor() const { return Ex.get(); }
  /// The explicitly configured ownership handle (empty when none was
  /// set; non-owning when the borrowing `executor(SpecExecutor &)`
  /// overload was used).
  const std::shared_ptr<SpecExecutor> &executorHandle() const { return Ex; }
  bool eagerProducerAbort() const { return EagerAbort; }
  Tracer *trace() const { return TraceSink; }
  FaultPlan *faults() const { return FaultSink; }
  std::chrono::nanoseconds deadline() const { return Deadline; }
  double degradeThreshold() const { return DegradeThresh; }
  int degradeWindow() const { return DegradeWin; }
  stats::Snapshot *statsSnapshotOut() const { return SnapSink; }
  int64_t autotuneTargetMicros() const { return AutotuneUs; }
  ProfileStore *profile() const { return Prof; }
  const std::string &profileSite() const { return Site; }
  /// True when the signal shield is armed — explicitly, or implied by a
  /// per-attempt budget (the watchdog's forced abandonment needs it).
  bool shield() const {
    return ShieldOn || BudgetNs > 0 || BudgetAutoMult > 0;
  }
  std::chrono::nanoseconds attemptBudget() const {
    return std::chrono::nanoseconds(BudgetNs);
  }
  double attemptBudgetAutoMult() const { return BudgetAutoMult; }
  TraceContext traceContext() const { return TraceCtx; }

  /// The persistent executor this config resolves to — the explicit one,
  /// or the process's default shard — or an empty handle when the run
  /// will create a transient executor (`threads(N > 0)` without
  /// `executor()`). The returned handle shares ownership, so it stays
  /// valid for as long as the caller holds it.
  std::shared_ptr<SpecExecutor> resolvedExecutor() const {
    if (Ex)
      return Ex;
    return NumThreads == 0 ? SpecExecutor::defaultShard() : nullptr;
  }

private:
  unsigned NumThreads = 0;
  ValidationMode Mode = ValidationMode::Seq;
  std::shared_ptr<SpecExecutor> Ex;
  bool EagerAbort = false;
  Tracer *TraceSink = nullptr;
  FaultPlan *FaultSink = nullptr;
  std::chrono::nanoseconds Deadline{0};
  double DegradeThresh = -1.0;
  int DegradeWin = 8;
  stats::Snapshot *SnapSink = nullptr;
  int64_t AutotuneUs = 0;
  ProfileStore *Prof = nullptr;
  std::string Site;
  bool ShieldOn = false;
  int64_t BudgetNs = 0;
  double BudgetAutoMult = 0;
  TraceContext TraceCtx;
};

namespace detail {
/// The cancellation context of the speculative task running on this
/// thread: its cancel flag, the enclosing run's cooperative deadline
/// (time_point::max() = none; nested scopes keep the tighter one), and
/// where `currentTaskCancelled()` records that the running attempt
/// *observed* cancellation (and may therefore have bailed with partial
/// output — the validator refuses to accept such attempts).
struct CancelContext {
  const std::atomic<bool> *Flag = nullptr;
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::max();
  std::atomic<bool> *Observed = nullptr;
};

/// The calling thread's cancellation context. Out-of-line over a
/// function-local `thread_local` rather than an extern TLS variable:
/// GCC's UBSan mis-instruments the cross-TU TLS wrapper of the latter
/// (bogus null-pointer reports on every access from inlined header
/// code), and the accessor keeps the hot sites to one call.
CancelContext &cancelContext();

/// RAII: marks the current thread as running a speculative attempt whose
/// cancel flag is \p Flag, with \p Deadline (an enclosing run's tighter
/// deadline stays binding) and \p Observed as the observation flag for
/// `currentTaskCancelled()`. The flag lives in the attempt record, which
/// the run keeps alive until the attempt retires.
class CancelScope {
public:
  CancelScope(const std::atomic<bool> *Flag,
              std::chrono::steady_clock::time_point Deadline,
              std::atomic<bool> *Observed)
      : Saved(cancelContext()) {
    CancelContext &C = cancelContext();
    C.Flag = Flag;
    C.Deadline = std::min(Saved.Deadline, Deadline);
    C.Observed = Observed;
  }
  ~CancelScope() { cancelContext() = Saved; }

private:
  CancelContext Saved;
};
} // namespace detail

/// True if the speculative task running on this thread has been cancelled
/// (its prediction was invalidated, the run is tearing down, or the run's
/// cooperative deadline expired). Long-running bodies should poll this —
/// the paper's cooperative-cancellation contract. Chunked bodies may poll
/// it between iterations of a chunk. A body that returns early after
/// observing `true` is never accepted by the validator, so bailing with a
/// partial value is always safe.
bool currentTaskCancelled();

namespace detail {

/// One speculative execution of a segment [B, E) with a given input. An
/// attempt lives inline in its wave slot (SegSlot::Storage) and is reset
/// in place wave after wave — the steady-state attempt lifecycle does
/// not touch the heap. `Done` is the publication point: every plain
/// field is written before the seq_cst store of `Done` and read by the
/// validator only after it loads `Done == true`.
template <typename T, typename U> struct SegAttempt {
  std::optional<T> In;
  std::optional<T> Out;
  std::optional<U> Local;
  std::exception_ptr Err;
  /// Completion order within the run (0 = not finished). The validator
  /// only accepts an attempt that finished *last* in its slot, so that
  /// the accepted execution's writes are the final ones.
  uint64_t FinishStamp = 0;
  /// Telemetry attempt id (0 when no tracer is installed).
  uint64_t TraceId = 0;
  /// The iteration range this attempt executes.
  int64_t B = 0, E = 0;
  /// Wave-local slot this attempt belongs to.
  int64_t SlotIdx = 0;
  /// The index reported to telemetry and finalizers (iteration index for
  /// plain iterate, segment ordinal for the chunked forms).
  int64_t UserIdx = 0;
  /// A corrective attempt's predecessor: the slot's prior attempt. The
  /// corrective runs only after the predecessor's body is over, so
  /// attempts of one segment never run concurrently.
  SegAttempt *After = nullptr;
  /// A corrective parked on this attempt by its chainer (see
  /// launchCorrective), or `this` once this attempt's body is over and
  /// stamped. Whoever comes second submits the corrective, so no task
  /// ever blocks on a predecessor — a blocked wait could sit above that
  /// very predecessor on one thread's stack (a nested run's helping can
  /// pop it there), or close a cycle across two threads.
  std::atomic<SegAttempt *> Successor{nullptr};
  /// Body wall time in ns, measured only when the autotuner is armed.
  int64_t BodyNs = 0;
  /// The signal shield contained a crash (or forced runaway abandonment)
  /// in this attempt's body. Published like the other plain fields
  /// (before the Done store). A crashed attempt is never acceptable, but
  /// it *does* participate in last-finisher selection: if it finished
  /// last, its partial writes landed last, so the validator must
  /// re-execute the segment to make the authoritative writes final.
  bool Crashed = false;
  /// Cooperative cancellation flag (plain atomic — no shared_ptr token
  /// on the hot path).
  std::atomic<bool> CancelFlag{false};
  /// Set by `currentTaskCancelled()` when the body observed cancellation
  /// mid-run: its output may be a partial bail-out value and must never
  /// be accepted.
  std::atomic<bool> ObservedCancel{false};
  /// Who runs this attempt. The low two bits are its state — reset,
  /// queued in the executor, or claimed by the thread running it — and
  /// the rest counts resets, so a ticket names one dispatch of this
  /// storage. Each dispatch submits one task, which runs the body only
  /// if it wins the claim: the validator may claim a queued attempt of
  /// the slot it waits on and run it inline (see quiesceSlot), and the
  /// task then loses and only retires. A stale ticket never matches a
  /// later dispatch of the same storage.
  std::atomic<uint64_t> Claim{0};
  std::atomic<bool> Done{false};

  static constexpr uint64_t StateMask = 3, Queued = 1;

  /// Starts a new dispatch: a fresh epoch, not yet submitted.
  void resetClaim() {
    Claim.store((Claim.load(std::memory_order_relaxed) | StateMask) + 1,
                std::memory_order_relaxed);
  }
  /// Marks the attempt queued; returns the ticket its task claims with.
  uint64_t enqueue() {
    const uint64_t Ticket = Claim.load(std::memory_order_relaxed) | Queued;
    Claim.store(Ticket, std::memory_order_seq_cst);
    return Ticket;
  }
  /// Claims the dispatch \p Ticket names; false if another thread did,
  /// or the storage was reset since.
  bool claim(uint64_t Ticket) {
    return Claim.compare_exchange_strong(Ticket, Ticket + 1,
                                         std::memory_order_seq_cst);
  }
  /// This dispatch's ticket if it sits unclaimed in an executor queue.
  std::optional<uint64_t> queuedTicket() const {
    const uint64_t C = Claim.load(std::memory_order_seq_cst);
    if ((C & StateMask) != Queued)
      return std::nullopt;
    return C;
  }
};

/// A wave slot: the initial attempt plus at most one Par-mode corrective,
/// appended lock-free. `Count` is reserve-then-publish — a chainer CASes
/// Count up, then release-stores the item pointer — so readers tolerate a
/// transiently null cell by re-polling (the publisher is a handful of
/// instructions away). Item I always lives in `Storage[I]`, so a slot
/// owns every attempt it can ever hold and no attempt pool is needed.
template <typename T, typename U> struct SegSlot {
  std::atomic<int> Count{0};
  std::atomic<SegAttempt<T, U> *> Items[2] = {};
  SegAttempt<T, U> Storage[2];
};

/// The runtime's one blocking wait: returns true once \p Ready() holds,
/// false if \p Deadline passes first (time_point::max() = none). While
/// \p Queued() reports that the awaited attempt still sits in an executor
/// queue, the caller runs queued tasks instead of sleeping — the liveness
/// argument for nested runs on a shared executor and for executors whose
/// every worker is blocked: the awaited task is either running on some
/// thread or gets run right here. A helped task that overran the
/// deadline expires the wait, whatever it brought about. Otherwise the
/// caller parks on \p EC, whose notifier makes \p Ready()'s state
/// seq_cst-visible first; the 500 us timeout re-checks the queue and the
/// deadline.
template <typename ReadyFn, typename QueuedFn>
bool helpingWait(SpecExecutor &Ex, EventCount &EC, ReadyFn &&Ready,
                 QueuedFn &&Queued,
                 std::chrono::steady_clock::time_point Deadline =
                     std::chrono::steady_clock::time_point::max()) {
  const bool HasDeadline =
      Deadline != std::chrono::steady_clock::time_point::max();
  auto Expired = [&] {
    return HasDeadline && std::chrono::steady_clock::now() >= Deadline;
  };
  for (;;) {
    if (Ready())
      return true;
    if (Expired())
      return false;
    if (Queued() && Ex.tryRunOneTask()) {
      if (Expired())
        return false;
      continue;
    }
    const uint64_t Ticket = EC.prepareWait();
    if (Ready()) {
      EC.cancelWait();
      return true;
    }
    EC.waitFor(Ticket, std::chrono::microseconds(500));
  }
}

/// Lock-free synchronisation of one speculative run (an iterate() engine
/// or one apply()). `attemptFinished()` is one atomic decrement plus a
/// conditional wake through the eventcount, and `retire()` is how the
/// run's owner waits out its attempts before destroying what their tasks
/// reference.
struct SegRunSync {
  EventCount EC;
  /// Attempts queued or running. seq_cst: participates in the eventcount
  /// Dekker protocol with waiters' prepareWait/re-check.
  std::atomic<int64_t> Outstanding{0};
  /// Orders attempt completions (FinishStamp = fetch_add + 1).
  std::atomic<uint64_t> FinishCounter{0};
  /// The run is tearing down (final drain, degrade, timeout): an initial
  /// attempt that is already cancelled when it starts may skip its body
  /// entirely. Never set while the validator still wants bodies to run —
  /// cancelled-but-running bodies stay observable (cooperative
  /// cancellation tests rely on it).
  std::atomic<bool> Draining{false};
  /// Tasks dispatched by Par-mode chainers. Workers must not touch the
  /// run's (non-atomic) SpeculationStats, so they count here and
  /// retire() merges them.
  std::atomic<int64_t> ChainedTasks{0};
  /// Attempts the validator claimed and ran inline whose tasks have not
  /// yet been popped (they only retire). Incremented by the validator,
  /// decremented by the losing task before its attemptFinished().
  std::atomic<int64_t> Stale{0};
  /// Shield containments and watchdog escalations, counted by workers
  /// (same rule as ChainedTasks: never the non-atomic stats) and merged
  /// by retire().
  std::atomic<int64_t> ContainedCrashes{0};
  std::atomic<int64_t> RunawayCancels{0};
  /// Workers inside the decrement-then-notify window below. retire()
  /// waits for this to reach zero after Outstanding does: otherwise the
  /// owner could observe Outstanding == 0 and destroy this struct while
  /// the last worker is still touching EC.
  std::atomic<int32_t> Exiting{0};
  /// The validating thread, recorded at run start. runAttempt() sets
  /// ForeignClaim when any *other* thread claims one of the current
  /// wave's attempts; the validator's help-vs-park policy keys off it
  /// (see quiesceSlot). Reset each wave.
  std::thread::id ValidatorId;
  std::atomic<bool> ForeignClaim{false};

  void attemptFinished() {
    Exiting.fetch_add(1, std::memory_order_seq_cst);
    Outstanding.fetch_sub(1, std::memory_order_seq_cst);
    EC.notifyAll();
    Exiting.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Waits until every attempt has retired (a helpingWait() keyed on
  /// \p Queued) and the last finisher has left attemptFinished() — the
  /// owner may then destroy this struct — and merges the worker-side
  /// counts into \p Stats. Not under any deadline: a timed-out run still
  /// retires every task before throwing, so nothing is ever leaked.
  template <typename QueuedFn>
  void retire(SpecExecutor &Ex, SpeculationStats &Stats, QueuedFn &&Queued) {
    helpingWait(
        Ex, EC,
        [this] { return Outstanding.load(std::memory_order_seq_cst) == 0; },
        Queued);
    // The window is a handful of instructions.
    while (Exiting.load(std::memory_order_seq_cst) != 0)
      std::this_thread::yield();
    Stats.Tasks += ChainedTasks.load(std::memory_order_relaxed);
    Stats.ContainedCrashes += ContainedCrashes.load(std::memory_order_relaxed);
    Stats.RunawayCancels += RunawayCancels.load(std::memory_order_relaxed);
  }
};

/// Runs \p Body as a shielded speculative attempt: the per-attempt budget
/// \p BudgetNs (0 = none) is folded into the attempt's cooperative
/// deadline, so polling bodies bail on their own, and armed on the
/// watchdog, which only ever force-abandons bodies that never poll. The
/// crash/runaway fault probes fire inside the shield before \p Body, so
/// an injected fault's longjmp skips no constructed locals. Counts a
/// containment, and a runaway (forced abandonment, or a budget that
/// expired while the watchdog or the body saw it), into \p Run, traced
/// against attempt (\p Idx, \p TraceId). Returns true when the shield
/// contained a fault: the body's partial state must then be dropped. A
/// throwing body's exception propagates.
template <typename BodyFn>
bool shieldedAttempt(BodyFn &&Body, int64_t BudgetNs,
                     std::atomic<bool> &CancelFlag,
                     std::atomic<bool> &ObservedCancel, SegRunSync &Run,
                     FaultPlan *FP, Tracer *Tr, int64_t Idx, uint64_t TraceId,
                     TraceContext JobCtx) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point BudgetDeadline =
      BudgetNs > 0 ? Clock::now() + std::chrono::nanoseconds(BudgetNs)
                   : Clock::time_point::max();
  CancelScope BudgetScope(&CancelFlag, BudgetDeadline, &ObservedCancel);
  const CancelContext SavedCC = cancelContext();
  const ShieldOutcome SO = shieldedCall(BudgetNs, [&] {
    if (FP) {
      FP->maybeCrash(FaultSite::CrashInBody);
      FP->maybeRunaway(FaultSite::RunawayBody);
    }
    Body();
  });
  const bool Contained = SO.Fault != ContainedFault::None;
  if (Contained) {
    // The longjmp skipped every frame between the fault and the shield,
    // including any nested CancelScope destructors; restore the thread's
    // cancel context by hand.
    cancelContext() = SavedCC;
    Run.ContainedCrashes.fetch_add(1, std::memory_order_relaxed);
    if (Tr)
      Tr->record(SpecEventKind::CrashContained, Idx, TraceId, JobCtx);
  }
  const bool BudgetExpired = BudgetNs > 0 && Clock::now() >= BudgetDeadline;
  if (SO.Fault == ContainedFault::Runaway ||
      (BudgetExpired && (SO.WatchdogCancelled ||
                         ObservedCancel.load(std::memory_order_relaxed)))) {
    Run.RunawayCancels.fetch_add(1, std::memory_order_relaxed);
    if (Tr)
      Tr->record(SpecEventKind::RunawayCancel, Idx, TraceId, JobCtx);
  }
  return Contained;
}

/// Copies the run's accumulated statistics into the config's
/// `stats::Snapshot` sink (when set) on every exit path, including
/// throws: the sink gets them as its `Spec` half (its `Exec` half is
/// filled by ExecDeltaGuard, which lives closer to the resolved
/// executor).
struct StatsOutGuard {
  const SpeculationStats &Local;
  stats::Snapshot *Snap = nullptr;
  ~StatsOutGuard() {
    if (Snap)
      Snap->Spec = Local;
  }
};

/// Predictor candidate ids for profile-guided prediction. `User` is the
/// caller's own predictor; `Last` predicts the most recently validated
/// loop-carried value; `Stride` linearly extrapolates the last two
/// validated values (arithmetic T only). The ids are what ProfileSeed /
/// PredictorSwitch trace events and the ProfileStore's candidate names
/// refer to.
enum PredictorCandidate : int {
  CandUser = 0,
  CandLast = 1,
  CandStride = 2,
  NumCandidates = 3,
};

/// Fills a `stats::Snapshot` sink's `Exec` half with the resolved
/// executor's activity delta across the run. Constructed immediately
/// after executor resolution — and therefore destroyed *before* a
/// transient executor is, so the final read never touches a dead
/// executor. By then the engine has validated or drained every attempt,
/// so the delta covers the run's work.
struct ExecDeltaGuard {
  stats::Snapshot *Snap;
  SpecExecutor *Ex;
  ExecutorStats Before{};
  ExecDeltaGuard(stats::Snapshot *Snap, SpecExecutor &Ex)
      : Snap(Snap), Ex(&Ex) {
    if (Snap)
      Before = Ex.stats();
  }
  ~ExecDeltaGuard() {
    if (Snap)
      Snap->Exec = Ex->stats() - Before;
  }
};

//===------------- the iterate engine's T-independent policies ------------===//
//
// SegEngine keeps only what depends on T (predictions, stride
// observations, attempts); the policies below are compiled once, in
// Speculation.cpp. All of them are validator-only state, except
// ChunkTuner::budgetNs(), which workers read.

/// The degrade monitor (SpecConfig::degrade()): a sliding window over the
/// outcomes of the last prediction points (bad = mispredicted or failed).
class BadRateWindow {
public:
  explicit BadRateWindow(const SpecConfig &Cfg);
  bool armed() const { return !Buf.empty(); }
  /// The window is full and its bad fraction exceeds the threshold.
  bool tripped() const {
    const int N = static_cast<int>(Buf.size());
    return armed() && Count == N && Bad > Thresh * N;
  }
  void push(bool IsBad);
  void clear();

private:
  double Thresh;
  std::vector<char> Buf;
  int Count = 0, Pos = 0, Bad = 0;
};

/// The chunk autotuner (SpecConfig::autotune()) and the per-attempt budget
/// (attemptBudget() / attemptBudgetAuto()). Both feed on the measured
/// body times of validated segments, adjusted between waves.
class ChunkTuner {
public:
  /// \p TargetNs is 0 for plain iterate (never autotuned); \p Span is
  /// the iteration count.
  ChunkTuner(const SpecConfig &Cfg, int64_t ChunkInit, int64_t TargetNs,
             int64_t Span, unsigned Workers);
  int64_t chunk() const { return Chunk; }
  bool autotuned() const { return TargetNs > 0; }
  /// Body timing is on: the autotuner or the auto budget consumes it.
  bool measuring() const { return Measure; }
  /// The per-attempt budget workers arm (0 = none): the explicit budget,
  /// else the auto budget (0 until the first measured wave lands).
  int64_t budgetNs() const { return BudgetNs.load(std::memory_order_relaxed); }
  /// Accounts one validated segment of the current wave: its body time
  /// and, at a prediction point (\p Boundary), whether it resolved badly.
  void note(int64_t Ns, bool Boundary, bool IsBad);
  /// Between waves: re-derives the auto budget and re-sizes the chunk
  /// (traced as `Autotune`, indexed by the new size).
  void endWave(Tracer *Tr, TraceContext Ctx);
  /// Warm start of an autotuned run: adopts a profiled chunk size
  /// (clamped to the ceiling); returns the size adopted, 0 for none.
  int64_t seed(int64_t Profiled);

private:
  int64_t Chunk;
  /// Never grow past two segments per worker, never below ChunkInit.
  int64_t MaxChunk;
  const int64_t TargetNs;
  const double BudgetAutoMult; ///< 0 when an explicit budget wins.
  const bool Measure;
  std::atomic<int64_t> BudgetNs{0};
  int64_t BudgetEwmaNs = 0;
  int64_t WaveNs = 0, WaveMeasured = 0, WaveBad = 0, WaveBoundaries = 0;
};

/// Profile-guided prediction's per-run candidate accounting: the active
/// candidate, which candidates have had their shot, each one's shadow
/// hits and misses, and the degrade trips. Armed iff the config names
/// both a profile store and a site.
class CandidateTally {
public:
  explicit CandidateTally(const SpecConfig &Cfg);
  bool on() const { return Prof != nullptr; }
  int active() const { return Active; }
  /// One shadow comparison of candidate \p C at a prediction point.
  void score(int C, bool Hit);
  /// Run start: seeds the chunk size (autotuned runs) and the active
  /// candidate from the store. \p StrideOk: T is arithmetic.
  void seed(ChunkTuner &Tuner, bool StrideOk, SpeculationStats &Stats,
            Tracer *Tr, TraceContext Ctx);
  /// A degrade-monitor trip. Switches to the untried candidate with the
  /// best hit rate this run, when one has enough samples and hits a
  /// majority (each gets one shot, so a hopeless site still converges to
  /// sequential), and returns true; false means degrade.
  bool switchOnTrip(SpeculationStats &Stats, Tracer *Tr, TraceContext Ctx);
  /// Run end: folds the run's observations into the store.
  void record(const ChunkTuner &Tuner, const SpeculationStats &Stats) const;

private:
  ProfileStore *Prof;
  const std::string &Site;
  int Active = CandUser;
  std::array<bool, NumCandidates> Tried{};
  std::array<int64_t, NumCandidates> Hits{}, Misses{};
  int64_t Trips = 0;
};

} // namespace detail

/// The speculation API (paper Figure 3).
class Speculation {
public:
  /// Speculative composition: computes `Consumer(Producer())`, overlapping
  /// the producer with a speculative run of `Consumer(Predictor())`.
  ///
  /// \returns the run's statistics; the consumer acts by side effect (like
  /// the paper's `Action<T> consumer`). On misprediction the consumer is
  /// simply re-executed with the correct value (no rollback). Exceptions:
  /// the producer's exception propagates; the consumer's exception
  /// propagates only from the validated run.
  template <typename T, typename ProducerFn, typename PredictorFn,
            typename ConsumerFn, typename Eq = std::equal_to<T>>
  static SpecResult<void> apply(ProducerFn &&Producer, PredictorFn &&Predictor,
                                ConsumerFn &&Consumer,
                                const SpecConfig &Cfg = SpecConfig(),
                                Eq Equal = Eq()) {
    SpecResult<void> Result;
    detail::StatsOutGuard Guard{Result.Stats, Cfg.statsSnapshotOut()};
    applyImpl<T>(std::forward<ProducerFn>(Producer),
                 std::forward<PredictorFn>(Predictor),
                 std::forward<ConsumerFn>(Consumer), Cfg, Equal, Result.Stats);
    return Result;
  }

private:
  /// apply() engine: fills \p Stats in place so callers observe whatever
  /// was gathered even when the run throws.
  ///
  /// The speculative half of rule CHECK, `Consumer(Predictor())`, is one
  /// attempt on a worker, concurrent with the producer on the calling
  /// thread. Its record lives in this frame; the task captures one
  /// pointer (it fits TaskRef's inline storage), so a call makes no heap
  /// allocation. This is deliberately not a two-segment SegEngine run:
  /// SegEngine computes predictions on the calling thread before
  /// dispatch, so the predictor would run before the producer instead of
  /// beside it, and eagerProducerAbort would have nothing to abort.
  template <typename T, typename ProducerFn, typename PredictorFn,
            typename ConsumerFn, typename Eq>
  static void applyImpl(ProducerFn &&Producer, PredictorFn &&Predictor,
                        ConsumerFn &&Consumer, const SpecConfig &Cfg,
                        Eq Equal, SpeculationStats &Stats) {
    // Nested speculation inside a shielded body: this coordination code
    // is authoritative, so a crash here must not be contained (it would
    // longjmp past a live run other threads still reference).
    ShieldPause PauseOuter;
    std::optional<SpecExecutor> Transient;
    SpecExecutor &Ex = resolveExecutor(Cfg, Transient);
    detail::ExecDeltaGuard ExecGuard{Cfg.statsSnapshotOut(), Ex};
    Tracer *const Tr = Cfg.trace();
    FaultPlan *const FP = Cfg.faults();
    const TraceContext JobCtx = Cfg.traceContext();
    const std::chrono::steady_clock::time_point Deadline =
        resolveDeadline(Cfg);
    const uint64_t AId = Tr ? Tr->newAttemptId() : 0;
    const bool Shield = Cfg.shield();
    const int64_t BudgetNs = Cfg.attemptBudget().count();
    if (Shield)
      installSignalShield();

    /// Plain fields are written by the worker before the seq_cst store of
    /// the flag that publishes them — Guess before GuessReady, Err and
    /// Ran before Done — and read by this thread only after it loads
    /// that flag true.
    struct Attempt {
      std::optional<T> Guess;
      std::exception_ptr Err;
      /// The speculative consumer ran to completion (it may still have
      /// thrown); false when it was skipped — no guess, or cancelled
      /// before it started — or the shield contained it.
      bool Ran = false;
      std::atomic<bool> GuessReady{false};
      std::atomic<bool> Started{false};
      std::atomic<bool> Done{false};
      std::atomic<bool> CancelFlag{false};
      /// The consumer observed cancellation mid-run (spurious cancel,
      /// expired deadline or budget): its side effects may be partial,
      /// so the validated path must re-execute.
      std::atomic<bool> ObservedCancel{false};
    } A;
    detail::SegRunSync Run;
    auto Queued = [&A] { return !A.Started.load(std::memory_order_seq_cst); };
    // Every exit retires the attempt before the frame its task references
    // dies, and merges the worker's shield counts.
    struct RetireGuard {
      detail::SegRunSync &Run;
      SpecExecutor &Ex;
      SpeculationStats &Stats;
      decltype(Queued) &Q;
      ~RetireGuard() { Run.retire(Ex, Stats, Q); }
    };

    auto Work = [&] {
      A.Started.store(true, std::memory_order_seq_cst);
      detail::CancelScope Scope(&A.CancelFlag, Deadline, &A.ObservedCancel);
      if (Tr)
        Tr->record(SpecEventKind::Start, 0, AId, JobCtx);
      // The worker consumes its own copy: the caller compares A.Guess
      // concurrently.
      std::optional<T> G;
      try {
        if (FP)
          FP->maybeThrow(FaultSite::PredictorThrow);
        G = Predictor();
      } catch (...) {
        // A failing predictor counts as an unusable guess; the caller
        // falls back to the non-speculative path.
      }
      A.Guess = G;
      A.GuessReady.store(true, std::memory_order_seq_cst);
      Run.EC.notifyAll();
      // Injection site: trip the attempt's cancellation flag for no
      // reason, right in the window between guess publication and the
      // consumer's decision to run.
      if (FP && FP->shouldFire(FaultSite::SpuriousCancel))
        A.CancelFlag.store(true, std::memory_order_seq_cst);
      if (G && !A.CancelFlag.load(std::memory_order_seq_cst)) {
        A.Ran = true;
        try {
          if (FP)
            FP->maybeThrow(FaultSite::BodyThrow);
          auto Consume = [&] { Consumer(*G); };
          if (!Shield)
            Consume();
          else if (detail::shieldedAttempt(Consume, BudgetNs, A.CancelFlag,
                                           A.ObservedCancel, Run, FP, Tr, 0,
                                           AId, JobCtx))
            A.Ran = false;
        } catch (...) {
          A.Err = std::current_exception();
        }
      }
      // Record before publishing completion: once Done is visible the
      // caller may return, and the tracer may die with it.
      if (Tr)
        Tr->record(SpecEventKind::Finish, 0, AId, JobCtx);
      A.Done.store(true, std::memory_order_seq_cst);
      Run.attemptFinished();
    };

    ++Stats.Tasks;
    if (Tr)
      Tr->record(SpecEventKind::Dispatch, 0, AId, JobCtx);
    Run.Outstanding.fetch_add(1, std::memory_order_seq_cst);
    Ex.submit([W = &Work] { (*W)(); });
    RetireGuard Retire{Run, Ex, Stats, Queued};

    auto Await = [&](const std::atomic<bool> &Flag,
                     std::chrono::steady_clock::time_point Until) {
      return detail::helpingWait(
          Ex, Run.EC,
          [&Flag] { return Flag.load(std::memory_order_seq_cst); }, Queued,
          Until);
    };
    // Cancels the speculation and waits for the attempt to finish, so a
    // re-execution's writes land after the speculative consumer's.
    auto Abort = [&] {
      A.CancelFlag.store(true, std::memory_order_seq_cst);
      if (Tr)
        Tr->record(SpecEventKind::Cancel, 0, AId, JobCtx);
      Await(A.Done, std::chrono::steady_clock::time_point::max());
    };
    // The deadline expired at a wait: cancel, drain (the drain itself is
    // not under the deadline), and report the timeout.
    auto TimeOut = [&] {
      Abort();
      if (Tr)
        Tr->record(SpecEventKind::Timeout, 0, 0, JobCtx);
      throw SpecTimeoutError(Cfg.deadline());
    };

    std::optional<T> Produced;
    try {
      Produced = Producer();
    } catch (...) {
      // Abort the speculation; nothing it did is observable under
      // rollback freedom, and its exception (if any) is suppressed.
      Abort();
      throw;
    }

    // The check step (paper rule CHECK): compare guess with the product.
    // Section 3.3 (eagerProducerAbort): when the producer beat the
    // predictor, speculation can no longer pay off — the prediction point
    // resolves without a guess instead of waiting for one.
    const bool Eager =
        Cfg.eagerProducerAbort() &&
        !A.GuessReady.load(std::memory_order_seq_cst);
    if (!Eager && !Await(A.GuessReady, Deadline))
      TimeOut();
    ++Stats.Predictions;
    const bool HaveGuess = !Eager && A.Guess.has_value();
    bool CmpThrew = false;
    bool GuessCorrect =
        HaveGuess && guardedEqual(Equal, FP, *Produced, *A.Guess, CmpThrew);
    // Injection site: discard a correct guess, forcing the
    // misprediction/re-execution path.
    if (GuessCorrect && FP && FP->shouldFire(FaultSite::ForceMispredict))
      GuessCorrect = false;
    if (GuessCorrect) {
      if (!Await(A.Done, Deadline))
        TimeOut();
      // Accept only a consumer that ran to completion without being
      // cancelled and without *observing* cancellation — a spuriously
      // cancelled or deadline-bailed consumer may have acted partially.
      if (A.Ran && !A.CancelFlag.load(std::memory_order_seq_cst) &&
          !A.ObservedCancel.load(std::memory_order_relaxed)) {
        if (Tr)
          Tr->record(SpecEventKind::ValidateAccept, 0, AId, JobCtx);
        if (A.Err)
          std::rethrow_exception(A.Err);
        if (Tr)
          Tr->record(SpecEventKind::Finalize, 0, 0, JobCtx);
        return;
      }
      // The guess was right but the speculative run was robbed of it:
      // re-execute with the real value below.
    } else {
      // Misprediction (or a predictor/comparator that produced no usable
      // comparison): cancel the speculative consumer and re-execute with
      // the correct value (rule CHECK's `cancel tc; vc xp`). Nothing was
      // reliably compared when there was no guess or the comparator
      // threw — that is a failed prediction, not a misprediction.
      if (!HaveGuess || CmpThrew) {
        ++Stats.FailedPredictions;
      } else {
        ++Stats.Mispredictions;
        if (Tr)
          Tr->record(SpecEventKind::Mispredict, 0, AId, JobCtx);
      }
      Abort();
    }
    ++Stats.Reexecutions;
    if (Tr)
      Tr->record(SpecEventKind::Reexecute, 0, 0, JobCtx);
    Consumer(*Produced);
    if (Tr)
      Tr->record(SpecEventKind::Finalize, 0, 0, JobCtx);
  }

public:

  /// Speculative iteration over [Low, High): computes
  ///
  ///   T Acc = Predictor(Low);
  ///   for (int64_t I = Low; I < High; ++I) Acc = Body(I, Acc);
  ///   return {Acc, Stats};
  ///
  /// with all iterations launched speculatively on predicted inputs
  /// (`Predictor(I)` is the predicted loop-carried value *entering*
  /// iteration I).
  ///
  /// Prediction functions are invoked on the calling thread before
  /// speculation begins; they are assumed cheap relative to iteration
  /// bodies (overlap window << segment size), as in the paper.
  template <typename T, typename BodyFn, typename PredictorFn,
            typename Eq = std::equal_to<T>>
  static SpecResult<T> iterate(int64_t Low, int64_t High, BodyFn &&Body,
                               PredictorFn &&Predictor,
                               const SpecConfig &Cfg = SpecConfig(),
                               Eq Equal = Eq()) {
    struct NoLocal {};
    return iterateLocal<T, NoLocal>(
        Low, High, [] { return NoLocal{}; },
        [&Body](int64_t I, NoLocal &, T In) {
          return Body(I, std::move(In));
        },
        std::forward<PredictorFn>(Predictor), [](int64_t, NoLocal &) {},
        Cfg, Equal);
  }

  /// The initializer/finalizer variant (paper Figure 3, the second
  /// Iterate overload): each iteration gets fresh local state `U` from
  /// \p Init, the body computes into it, and \p Finalize publishes it.
  /// Finalizers run exactly once per iteration, in iteration order, on the
  /// calling thread, and only for validated executions — the supported
  /// idiom for iterations whose writes would otherwise violate rollback
  /// freedom. A throwing finalizer aborts the run: later finalizers never
  /// run, in-flight attempts are cancelled and drained, then the
  /// exception propagates (statistics still reach statsOut()).
  template <typename T, typename U, typename InitFn, typename BodyFn,
            typename PredictorFn, typename FinalFn,
            typename Eq = std::equal_to<T>>
  static SpecResult<T> iterateLocal(int64_t Low, int64_t High, InitFn &&Init,
                                    BodyFn &&Body, PredictorFn &&Predictor,
                                    FinalFn &&Finalize,
                                    const SpecConfig &Cfg = SpecConfig(),
                                    Eq Equal = Eq()) {
    SpecResult<T> Result;
    detail::StatsOutGuard Guard{Result.Stats, Cfg.statsSnapshotOut()};
    if (High <= Low) {
      Result.Value = Predictor(Low);
      return Result;
    }
    std::optional<SpecExecutor> Transient;
    SpecExecutor &Ex = resolveExecutor(Cfg, Transient);
    detail::ExecDeltaGuard ExecGuard{Cfg.statsSnapshotOut(), Ex};
    // Plain iteration is chunk-size-1 segmented iteration whose segment
    // N reports iteration index Low + N; the init/finalize-per-iteration
    // contract pins the granularity, so the autotuner never applies here.
    SegEngine<T, U, InitFn, BodyFn, PredictorFn, FinalFn, Eq> Engine(
        Low, High, /*IndexBase=*/Low, /*ChunkInit=*/1,
        /*AutotuneTargetNs=*/0, Init, Body, Predictor, Finalize, Cfg, Ex,
        Equal, Result.Stats);
    Result.Value = Engine.run();
    return Result;
  }

  /// Chunked speculative iteration: like iterate(), but iterations are
  /// grouped into chunks of \p ChunkSize consecutive iterations. The
  /// loop-carried value is predicted once per chunk (`Predictor(I)` at the
  /// chunk's first iteration I) and each chunk runs its iterations
  /// sequentially inside a single speculative attempt, so per-task
  /// dispatch/validation overhead amortizes over ChunkSize iterations —
  /// the segment-granularity speculation of the paper's evaluation.
  ///
  /// Statistics are at chunk granularity (one task per chunk, one
  /// validated prediction per chunk boundary). Long chunk bodies may poll
  /// `currentTaskCancelled()` between iterations.
  ///
  /// \throws std::invalid_argument when `ChunkSize <= 0`, in every build
  /// mode (both chunked forms).
  template <typename T, typename BodyFn, typename PredictorFn,
            typename Eq = std::equal_to<T>>
  static SpecResult<T> iterateChunked(int64_t Low, int64_t High,
                                      int64_t ChunkSize, BodyFn &&Body,
                                      PredictorFn &&Predictor,
                                      const SpecConfig &Cfg = SpecConfig(),
                                      Eq Equal = Eq()) {
    struct NoLocal {};
    return iterateChunkedLocal<T, NoLocal>(
        Low, High, ChunkSize, [] { return NoLocal{}; },
        [&Body](int64_t I, NoLocal &, T In) {
          return Body(I, std::move(In));
        },
        std::forward<PredictorFn>(Predictor), [](int64_t, NoLocal &) {},
        Cfg, Equal);
  }

  /// The initializer/finalizer form of chunked iteration: \p Init runs
  /// once per chunk *attempt*, the chunk's iterations fill the local
  /// state, and \p Finalize publishes it once per chunk, in chunk order,
  /// on the calling thread, only for validated executions. \p Finalize
  /// receives the chunk index (chunk c covers iterations
  /// [Low + c*ChunkSize, min(High, Low + (c+1)*ChunkSize))).
  template <typename T, typename U, typename InitFn, typename BodyFn,
            typename PredictorFn, typename FinalFn,
            typename Eq = std::equal_to<T>>
  static SpecResult<T>
  iterateChunkedLocal(int64_t Low, int64_t High, int64_t ChunkSize,
                      InitFn &&Init, BodyFn &&Body, PredictorFn &&Predictor,
                      FinalFn &&Finalize, const SpecConfig &Cfg = SpecConfig(),
                      Eq Equal = Eq()) {
    // A non-positive chunk size is a contract violation in every build
    // mode — previously an assert that release builds silently clamped.
    if (ChunkSize <= 0)
      throw std::invalid_argument(
          "Speculation::iterateChunked: ChunkSize must be positive, got " +
          std::to_string(ChunkSize));
    SpecResult<T> Result;
    detail::StatsOutGuard Guard{Result.Stats, Cfg.statsSnapshotOut()};
    if (High <= Low) {
      Result.Value = Predictor(Low);
      return Result;
    }
    std::optional<SpecExecutor> Transient;
    SpecExecutor &Ex = resolveExecutor(Cfg, Transient);
    detail::ExecDeltaGuard ExecGuard{Cfg.statsSnapshotOut(), Ex};
    // The engine segments [Low, High) itself: with the autotuner off the
    // segment grid is exactly the fixed [Low + c*ChunkSize, ...) chunks;
    // with it on, ChunkSize is the initial granularity. Indices reported
    // to finalizers/predictions/telemetry are segment ordinals.
    SegEngine<T, U, InitFn, BodyFn, PredictorFn, FinalFn, Eq> Engine(
        Low, High, /*IndexBase=*/0, /*ChunkInit=*/ChunkSize,
        /*AutotuneTargetNs=*/Cfg.autotuneTargetMicros() * 1000, Init, Body,
        Predictor, Finalize, Cfg, Ex, Equal, Result.Stats);
    Result.Value = Engine.run();
    return Result;
  }

private:
  /// The engine under every iterate flavour: *wave-based* speculative
  /// iteration over segments of [Low, High).
  ///
  /// The iteration space is consumed in waves of up to
  /// `W = max(8, 4 * workers)` segments. Per wave the validator (the
  /// calling thread) plans the segment boundaries, computes the
  /// predictions (on the calling thread, in segment order, so FaultPlan
  /// probe sequences stay deterministic), dispatches one attempt per
  /// usable prediction, and validates the wave's segments strictly in
  /// order. Each of the W slots owns its two attempts inline (the initial
  /// dispatch and at most one Par-mode corrective), reset in place every
  /// wave — together with the executor's TaskRef/slot pooling the
  /// steady-state cost of a segment is zero heap allocations.
  ///
  /// Synchronisation is lock-free on the hot path: an attempt publishes
  /// its results with one seq_cst store of `Done`, completion is an
  /// atomic decrement plus a conditional eventcount wake, and the
  /// validator spins-briefly-then-parks, helping the executor drain
  /// queued tasks while it waits (deadlock-freedom for nested runs).
  /// Par-mode chaining appends to the next slot with a reserve-then-
  /// publish CAS on the slot's Count.
  ///
  /// The wave bound also caps in-flight speculation: a 10^5-segment run
  /// no longer materialises 10^5 attempts and tasks up front. And waves
  /// are what the autotuner hooks into — between waves the ChunkTuner
  /// may re-size the chunk (chunked forms only) using the measured body
  /// times and the wave's misprediction rate. The T-independent policies
  /// (ChunkTuner, BadRateWindow, CandidateTally) live in Speculation.cpp.
  ///
  /// \p Stats is filled in place (it survives throws via the caller's
  /// StatsOutGuard). Only the validator touches it; workers count
  /// chained dispatches in SegRunSync::ChainedTasks, merged before run()
  /// returns.
  template <typename T, typename U, typename InitFn, typename BodyFn,
            typename PredictorFn, typename FinalFn, typename Eq>
  class SegEngine {
    using Attempt = detail::SegAttempt<T, U>;
    using Slot = detail::SegSlot<T, U>;
    using Clock = std::chrono::steady_clock;

  public:
    /// Segment ordinal N reports index \p IndexBase + N to finalizers
    /// and telemetry: `Low` for plain iterate (one iteration per
    /// segment, so the iteration index), 0 for the chunked forms.
    SegEngine(int64_t Low, int64_t High, int64_t IndexBase, int64_t ChunkInit,
              int64_t AutotuneTargetNs, InitFn &Init, BodyFn &Body,
              PredictorFn &Predictor, FinalFn &Finalize, const SpecConfig &Cfg,
              SpecExecutor &Ex, Eq &Equal, SpeculationStats &Stats)
        : Low(Low), High(High), IndexBase(IndexBase), Init(Init), Body(Body),
          Predictor(Predictor), Finalize(Finalize), Ex(Ex), Equal(Equal),
          Stats(Stats), Mode(Cfg.mode()), Tr(Cfg.trace()),
          JobCtx(Cfg.traceContext()), FP(Cfg.faults()),
          CfgDeadline(Cfg.deadline()), Deadline(resolveDeadline(Cfg)),
          HasDeadline(Deadline != Clock::time_point::max()),
          W(std::max<int64_t>(8, 4 * static_cast<int64_t>(Ex.numThreads()))),
          Shield(Cfg.shield()),
          Tuner(Cfg, ChunkInit, AutotuneTargetNs, High - Low, Ex.numThreads()),
          Window(Cfg), Cands(Cfg), Slots(static_cast<size_t>(W)),
          WavePred(static_cast<size_t>(W)),
          WaveCand(Cands.on() ? static_cast<size_t>(W) : 0) {}

    SegEngine(const SegEngine &) = delete;
    SegEngine &operator=(const SegEngine &) = delete;

    T run() {
      // Nested run inside a shielded body: the validator loop here is
      // authoritative coordination — a crash in it must not be contained
      // by the *outer* attempt's shield (the longjmp would skip past
      // this live engine while workers still reference it). Attempts
      // this run dispatches re-arm their own shields in runAttempt.
      ShieldPause PauseOuter;
      if (Shield)
        installSignalShield();
      Run.ValidatorId = std::this_thread::get_id();
      if (Cands.on())
        Cands.seed(Tuner, std::is_arithmetic_v<T>, Stats, Tr, JobCtx);
      // The non-speculative initial value of the loop-carried state; its
      // exception propagates (speculative prediction points swallow
      // theirs into "failed prediction" instead — see planWave).
      T Correct = Predictor(Low);
      int64_t NextB = Low;  // first iteration not yet validated
      int64_t NextOrd = 0;  // its segment ordinal

      while (NextB < High && !TimedOut && !FirstValidErr) {
        if (Degraded) {
          // Adaptive sequential fallback: the remaining segments run in
          // order on this thread, exactly once, never dispatched. A
          // segment of the wave that tripped the monitor first waits out
          // its cancelled slot, so this execution's writes land last.
          const int64_t B = NextB, E = std::min(High, B + Tuner.chunk());
          const int64_t K = NextOrd - WaveOrd0;
          const int64_t UI = IndexBase + NextOrd;
          NextB = E;
          ++NextOrd;
          if (expired(UI) || (K < WaveCount && !quiesceSlot(K)))
            break;
          ++Stats.DegradedChunks;
          if (Tr)
            Tr->record(SpecEventKind::Degrade, UI, 0, JobCtx);
          std::optional<U> Local;
          int64_t Ns = 0;
          if (!execSegment(B, E, Correct, Local, Ns) ||
              !finalizeSegment(UI, *Local))
            break;
          continue;
        }
        planWave(NextB, NextOrd, Correct);
        dispatchWave();
        validateWave(NextB, NextOrd, Correct);
        if (TimedOut || FirstValidErr)
          break; // the drain below retires whatever is still in flight
        if (!Degraded) {
          Tuner.endWave(Tr, JobCtx);
          WaveCount = 0;
        }
      }

      // Cancel whatever speculation is still in flight and wait for
      // every attempt to retire (their tasks reference this engine).
      Run.Draining.store(true, std::memory_order_seq_cst);
      for (int64_t K = 0; K < WaveCount; ++K)
        cancelSlot(K);
      Run.retire(Ex, Stats, [] { return true; });
      // The segmentation the run actually ended on — after any autotune
      // resizes and regardless of how the run exits. DegradedChunks (and
      // chunk ordinals generally) count segments of *this* dynamic grid,
      // not the configured fixed grid.
      Stats.FinalChunk = Tuner.chunk();
      if (Cands.on())
        Cands.record(Tuner, Stats);
      if (TimedOut) {
        if (Tr)
          Tr->record(SpecEventKind::Timeout, TimeoutIdx, 0, JobCtx);
        throw SpecTimeoutError(CfgDeadline);
      }
      if (FirstValidErr)
        std::rethrow_exception(FirstValidErr);
      return Correct;
    }

  private:
    //===---------------- wave planning and dispatch --------------------===//

    int64_t segBegin(int64_t K) const { return WaveB0 + K * Tuner.chunk(); }
    int64_t segEnd(int64_t K) const {
      return std::min(High, segBegin(K) + Tuner.chunk());
    }
    int64_t userIdx(int64_t K) const { return IndexBase + WaveOrd0 + K; }

    /// Plans up to W segments starting at \p NextB and computes their
    /// predictions, here on the calling thread, in segment order — a
    /// throwing predictor (or an injected PredictorThrow) leaves the
    /// prediction disengaged, a *failed* prediction point with no attempt
    /// dispatched. Advances (\p NextB, \p NextOrd) past the wave.
    void planWave(int64_t &NextB, int64_t &NextOrd, const T &Correct) {
      WaveOrd0 = NextOrd;
      WaveB0 = NextB;
      for (WaveCount = 0; WaveCount < W && NextB < High;
           ++WaveCount, ++NextOrd) {
        const size_t K = static_cast<size_t>(WaveCount);
        const int64_t B = NextB;
        NextB = std::min(High, B + Tuner.chunk());
        if (NextOrd == 0) {
          // The run's first segment consumes the non-speculative initial
          // value — no speculation about its input, no prediction point.
          WavePred[K].emplace(Correct);
          if (Cands.on())
            for (auto &CP : WaveCand[K])
              CP.reset();
        } else if (!Cands.on()) {
          WavePred[K].reset();
          try {
            if (FP)
              FP->maybeThrow(FaultSite::PredictorThrow);
            WavePred[K].emplace(Predictor(B));
          } catch (...) {
          }
        } else {
          // Profile-guided: compute *every* candidate's prediction (the
          // user predictor is assumed cheap relative to bodies — it was
          // already called here per segment), dispatch on the active
          // one, shadow-score the rest at validation. `Correct` is the
          // last validated value — exactly what the last-value
          // candidate predicts for every segment of this wave.
          auto &CP = WaveCand[K];
          for (auto &C : CP)
            C.reset();
          try {
            if (FP)
              FP->maybeThrow(FaultSite::PredictorThrow);
            CP[detail::CandUser].emplace(Predictor(B));
          } catch (...) {
          }
          CP[detail::CandLast].emplace(Correct);
          stridePredict(B, CP[detail::CandStride]);
          WavePred[K] = CP[static_cast<size_t>(Cands.active())];
        }
      }
    }

    /// Resets the wave's slots and installs one attempt per usable
    /// prediction, then submits their tasks. Two passes: every slot must
    /// be fully initialised before the first task runs, because an early
    /// finisher may immediately chain into a later slot.
    void dispatchWave() {
      // No attempt of an earlier wave is still running a body or touching
      // a slot (each was quiesced), so this reset cannot race a worker;
      // the wave starts in the validator's eager helping mode (see
      // quiesceSlot).
      Run.ForeignClaim.store(false, std::memory_order_relaxed);
      // Tasks of attempts this thread ran inline may still sit in
      // executor queues. Retire them before queueing more, so the run
      // never has more than one wave's tasks queued however slowly the
      // workers pop them.
      detail::helpingWait(
          Ex, Run.EC,
          [this] { return Run.Stale.load(std::memory_order_seq_cst) == 0; },
          [] { return true; });
      for (int64_t K = 0; K < WaveCount; ++K) {
        Slot &S = Slots[static_cast<size_t>(K)];
        S.Items[1].store(nullptr, std::memory_order_relaxed);
        Attempt *A = nullptr;
        if (WavePred[static_cast<size_t>(K)]) {
          A = &S.Storage[0];
          resetAttempt(A, K, *WavePred[static_cast<size_t>(K)], nullptr);
          Run.Outstanding.fetch_add(1, std::memory_order_seq_cst);
          ++Stats.Tasks;
        }
        S.Items[0].store(A, std::memory_order_relaxed);
        S.Count.store(A ? 1 : 0, std::memory_order_relaxed);
      }
      for (int64_t K = 0; K < WaveCount; ++K) {
        // Guard on the prediction, not the slot: an already-running
        // early dispatch may chain into a *failed-prediction* slot's
        // Items[0] concurrently, and that corrective is submitted by
        // its chainer, not here.
        if (!WavePred[static_cast<size_t>(K)])
          continue;
        Attempt *A = &Slots[static_cast<size_t>(K)].Storage[0];
        if (Tr)
          Tr->record(SpecEventKind::Dispatch, A->UserIdx, A->TraceId, JobCtx);
        submitAttempt(A);
      }
    }

    void resetAttempt(Attempt *A, int64_t K, const T &In, Attempt *After) {
      A->In.emplace(In);
      A->Out.reset();
      A->Local.reset();
      A->Err = nullptr;
      A->FinishStamp = 0;
      A->B = segBegin(K);
      A->E = segEnd(K);
      A->SlotIdx = K;
      A->UserIdx = userIdx(K);
      A->After = After;
      A->BodyNs = 0;
      A->Crashed = false;
      A->CancelFlag.store(false, std::memory_order_relaxed);
      A->ObservedCancel.store(false, std::memory_order_relaxed);
      A->resetClaim();
      A->Done.store(false, std::memory_order_relaxed);
      A->Successor.store(nullptr, std::memory_order_relaxed);
      A->TraceId = Tr ? Tr->newAttemptId() : 0;
    }

    //===---------------- segment execution ------------------------------===//

    /// The one segment runner, for attempts and the validator alike:
    /// fresh local state from Init(), then Body folded over [B, E) from
    /// \p Acc. The body time lands in \p Ns when the tuner measures.
    T runSegment(int64_t B, int64_t E, T Acc, std::optional<U> &Local,
                 int64_t &Ns) {
      U L = Init();
      Clock::time_point T0;
      if (Tuner.measuring())
        T0 = Clock::now();
      for (int64_t I = B; I < E; ++I)
        Acc = Body(I, L, std::move(Acc));
      if (Tuner.measuring())
        Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - T0)
                 .count();
      Local.emplace(std::move(L));
      return Acc;
    }

    /// Runs segment [B, E) authoritatively on the validator, from and
    /// into \p Correct (re-execution and degraded mode). Deliberately
    /// *not* under a CancelScope: this is authoritative code. Returns
    /// false when the body threw (recorded in FirstValidErr).
    bool execSegment(int64_t B, int64_t E, T &Correct,
                     std::optional<U> &Local, int64_t &Ns) {
      try {
        if (FP)
          FP->maybeThrow(FaultSite::BodyThrow);
        Correct = runSegment(B, E, std::move(Correct), Local, Ns);
        return true;
      } catch (...) {
        FirstValidErr = std::current_exception();
        return false;
      }
    }

    /// Publishes a validated segment's local state. Returns false when
    /// the finalizer threw (recorded in FirstValidErr).
    bool finalizeSegment(int64_t UI, U &Local) {
      try {
        Finalize(UI, Local);
        if (Tr)
          Tr->record(SpecEventKind::Finalize, UI, 0, JobCtx);
        return true;
      } catch (...) {
        FirstValidErr = std::current_exception();
        return false;
      }
    }

    /// True — and the run marked timed out at index \p UI — once the
    /// deadline has passed.
    bool expired(int64_t UI) {
      if (!HasDeadline || Clock::now() < Deadline)
        return false;
      TimedOut = true;
      TimeoutIdx = UI;
      return true;
    }

    //===---------------- the worker-side attempt ------------------------===//

    /// The executor task of one dispatch. It loses the claim when the
    /// validator ran the attempt inline first, and then only retires.
    void attemptTask(Attempt *A, uint64_t Ticket) {
      if (A->claim(Ticket))
        runAttempt(A);
      else
        Run.Stale.fetch_sub(1, std::memory_order_seq_cst);
      Run.attemptFinished();
    }

    /// Runs one attempt, then (in Par mode) chains a corrective attempt
    /// for the next slot if our output contradicts its prediction. A
    /// corrective is launched only once the slot's prior attempt is over
    /// (launchCorrective), so attempts of one segment never write the
    /// same locations concurrently; it skips its body if it was
    /// cancelled meanwhile.
    void runAttempt(Attempt *A) {
      if (std::this_thread::get_id() != Run.ValidatorId)
        Run.ForeignClaim.store(true, std::memory_order_relaxed);
      bool Skip = false;
      if (A->After) {
        Skip = A->CancelFlag.load(std::memory_order_seq_cst);
      } else if (Run.Draining.load(std::memory_order_relaxed) &&
                 A->CancelFlag.load(std::memory_order_seq_cst)) {
        // Teardown fast path only: during normal validation a cancelled
        // body still runs (and may observe the flag) — required by the
        // cooperative-cancellation contract.
        Skip = true;
      }
      // Injection site: trip this attempt's cancellation flag even
      // though its input may be perfectly valid. The validator's
      // not-cancelled acceptance check turns this into a re-execution,
      // never a wrong result.
      if (!Skip && FP && FP->shouldFire(FaultSite::SpuriousCancel))
        A->CancelFlag.store(true, std::memory_order_seq_cst);
      if (Tr)
        Tr->record(SpecEventKind::Start, A->UserIdx, A->TraceId, JobCtx);
      detail::CancelScope Scope(&A->CancelFlag, Deadline,
                                &A->ObservedCancel);
      std::optional<T> Out;
      std::optional<U> Local;
      std::exception_ptr Err;
      bool Crashed = false;
      if (!Skip) {
        try {
          if (FP)
            FP->maybeThrow(FaultSite::BodyThrow);
          // *A->In is copied: it stays for the validator's comparisons.
          auto RunBody = [&] {
            Out.emplace(runSegment(A->B, A->E, *A->In, Local, A->BodyNs));
          };
          if (!Shield) {
            RunBody();
          } else if (detail::shieldedAttempt(RunBody, Tuner.budgetNs(),
                                             A->CancelFlag, A->ObservedCancel,
                                             Run, FP, Tr, A->UserIdx,
                                             A->TraceId, JobCtx)) {
            // Drop whatever partial state escaped the contained body.
            Out.reset();
            Local.reset();
            Crashed = true;
            A->CancelFlag.store(true, std::memory_order_seq_cst);
          }
        } catch (...) {
          Err = std::current_exception();
        }
      }
      // Parallel validation: if the next slot's prediction contradicts
      // our (speculative) output, append a corrective attempt for it
      // before publishing our own completion — the validator's quiesce
      // of our slot then happens-after the append, so it always sees
      // final slot membership.
      Attempt *Chained = nullptr;
      if (Mode == ValidationMode::Par && Out && A->SlotIdx + 1 < WaveCount &&
          !A->CancelFlag.load(std::memory_order_seq_cst) &&
          !A->ObservedCancel.load(std::memory_order_relaxed) &&
          !Run.Draining.load(std::memory_order_relaxed))
        Chained = tryChain(A->SlotIdx + 1, *Out);
      // Publish: every plain field first, then the seq_cst Done store.
      // Copy what the Finish event needs *before* the store — once Done
      // is visible the validator may accept the attempt and reset its
      // slot for the next wave.
      const uint64_t MyTrace = A->TraceId;
      const int64_t MyUser = A->UserIdx;
      A->Out = std::move(Out);
      A->Local = std::move(Local);
      A->Err = Err;
      A->Crashed = Crashed;
      A->FinishStamp =
          Run.FinishCounter.fetch_add(1, std::memory_order_relaxed) + 1;
      // Our writes are over and stamped: a corrective parked on us may
      // run now. Read before Done — once Done is visible this attempt may
      // be reset.
      Attempt *Parked = A->Successor.exchange(A, std::memory_order_seq_cst);
      A->Done.store(true, std::memory_order_seq_cst);
      if (Tr)
        Tr->record(SpecEventKind::Finish, MyUser, MyTrace, JobCtx);
      if (Chained) {
        if (Tr) {
          Tr->record(SpecEventKind::Chain, Chained->UserIdx,
                     Chained->TraceId, JobCtx);
          Tr->record(SpecEventKind::Dispatch, Chained->UserIdx,
                     Chained->TraceId, JobCtx);
        }
        launchCorrective(Chained);
      }
      if (Parked)
        submitAttempt(Parked);
      // Our own completion is signalled by the attemptTask wrapper.
    }

    void submitAttempt(Attempt *A) {
      // The thunk captures two pointers and a ticket — it fits TaskRef's
      // inline storage, so a steady-state dispatch never allocates.
      const uint64_t Ticket = A->enqueue();
      Ex.submit([this, A, Ticket] { attemptTask(A, Ticket); });
    }

    /// Submits corrective \p CA now if its predecessor's body is over;
    /// otherwise parks it on the predecessor, whose completion submits
    /// it (see SegAttempt::Successor).
    void launchCorrective(Attempt *CA) {
      Attempt *Expected = nullptr;
      if (CA->After && CA->After->Successor.compare_exchange_strong(
                           Expected, CA, std::memory_order_seq_cst))
        return;
      submitAttempt(CA);
    }

    /// Appends a corrective attempt with input \p OutVal to slot \p NK if
    /// no equivalent attempt (or prediction) exists there. Lock-free:
    /// reserve an item index by CASing Count, then publish with a
    /// release store. The reserved index names the slot's own storage.
    Attempt *tryChain(int64_t NK, const T &OutVal) {
      Slot &S = Slots[static_cast<size_t>(NK)];
      bool CmpThrew = false;
      bool Exists =
          WavePred[static_cast<size_t>(NK)] &&
          guardedEqual(Equal, FP, *WavePred[static_cast<size_t>(NK)], OutVal,
                       CmpThrew);
      const int C = S.Count.load(std::memory_order_acquire);
      for (int I = 0; I < C && !Exists; ++I) {
        Attempt *Other = S.Items[I].load(std::memory_order_acquire);
        if (!Other) {
          // Another chainer is mid-publish; treat as existing rather
          // than risk a duplicate.
          Exists = true;
          break;
        }
        Exists = guardedEqual(Equal, FP, *Other->In, OutVal, CmpThrew);
      }
      // Don't chain on an unreliable comparison: a throwing comparator
      // must never trigger extra speculation.
      if (CmpThrew)
        Exists = true;
      if (Exists)
        return nullptr;
      int Cur = S.Count.load(std::memory_order_acquire);
      while (Cur < 2 &&
             !S.Count.compare_exchange_weak(Cur, Cur + 1,
                                            std::memory_order_seq_cst,
                                            std::memory_order_acquire)) {
      }
      if (Cur >= 2)
        return nullptr;
      Attempt *After = nullptr;
      if (Cur > 0) {
        // The prior item may be mid-publish; its publisher is a few
        // instructions away.
        do {
          After = S.Items[Cur - 1].load(std::memory_order_acquire);
          if (!After)
            std::this_thread::yield();
        } while (!After);
      }
      Attempt *NA = &S.Storage[Cur];
      resetAttempt(NA, NK, OutVal, After);
      Run.Outstanding.fetch_add(1, std::memory_order_seq_cst);
      Run.ChainedTasks.fetch_add(1, std::memory_order_relaxed);
      S.Items[Cur].store(NA, std::memory_order_release);
      return NA;
    }

    //===---------------- validation -------------------------------------===//

    /// Validates the wave's segments strictly in order (the chain of
    /// `check` threads in the formal semantics). Returns early on a
    /// timeout or a valid exception, and on a degrade trip — which
    /// cancels the rest of the wave and rewinds (\p NextB, \p NextOrd)
    /// to the first unvalidated segment, for run()'s degraded path.
    void validateWave(int64_t &NextB, int64_t &NextOrd, T &Correct) {
      for (int64_t K = 0; K < WaveCount; ++K) {
        const int64_t Ord = WaveOrd0 + K;
        const int64_t UI = userIdx(K);
        if (expired(UI))
          return;
        if (Window.tripped()) {
          // The window is saturated with bad prediction points:
          // speculation is burning work. With a profile attached, first
          // try to switch to a candidate predictor that has been
          // hitting where the active one misses — the "deoptimize to a
          // better guess" move.
          if (Cands.switchOnTrip(Stats, Tr, JobCtx)) {
            // The new candidate drives the *next* wave's predictions,
            // and it deserves a full window before the monitor may trip
            // again.
            Window.clear();
          } else {
            // No better candidate: cancel this wave's remaining attempts
            // and fall back to in-order execution. Segments beyond the
            // wave were never dispatched — nothing to cancel there.
            Degraded = true;
            Run.Draining.store(true, std::memory_order_seq_cst);
            for (int64_t KK = K; KK < WaveCount; ++KK)
              cancelSlot(KK);
            NextB = segBegin(K);
            NextOrd = Ord;
            return;
          }
        }

        bool SlotBad = false;     // mispredicted or failed
        bool ForceReexec = false; // injected ForceMispredict fired
        if (Cands.on()) {
          // `Correct` here is the true value *entering* this segment:
          // shadow-score every candidate's prediction against it
          // (internal accounting — no fault-plan probes, and a throwing
          // comparator just skips the sample), then feed the observation
          // to the stride extrapolator.
          if (Ord > 0)
            for (int C = 0; C < detail::NumCandidates; ++C) {
              const std::optional<T> &CP =
                  WaveCand[static_cast<size_t>(K)][static_cast<size_t>(C)];
              bool Th = false;
              if (!CP)
                continue;
              const bool Hit = guardedEqual(Equal, nullptr, *CP, Correct, Th);
              if (Hit || !Th)
                Cands.score(C, Hit);
            }
          observe(segBegin(K), Correct);
        }
        if (Ord > 0) {
          ++Stats.Predictions;
          const std::optional<T> &P = WavePred[static_cast<size_t>(K)];
          bool CmpThrew = false;
          const bool Hit = P && guardedEqual(Equal, FP, *P, Correct, CmpThrew);
          // Injection site: discard a correct prediction, forcing the full
          // misprediction/re-execution machinery.
          ForceReexec =
              Hit && FP && FP->shouldFire(FaultSite::ForceMispredict);
          SlotBad = !Hit || ForceReexec;
          if (!P || CmpThrew) {
            // A failed prediction: the predictor threw (nothing was
            // dispatched) or the comparator did (no trustworthy
            // comparison; its exception never propagates from a
            // speculative validation). The validator executes it below.
            ++Stats.FailedPredictions;
          } else if (SlotBad) {
            ++Stats.Mispredictions;
            if (Tr)
              Tr->record(SpecEventKind::Mispredict, UI, 0, JobCtx);
          }
        }

        // Cancel attempts whose input is already known wrong, then
        // quiesce the slot. (Membership is final: chains into this slot
        // originate from the previous slot, which was quiesced before we
        // advanced, and their append happens-before that quiesce
        // observed them done.) An attempt is acceptable only if it ran
        // with the correct input, finished last in its slot (only then
        // are its writes the final ones), and was neither cancelled nor
        // *observed* cancellation — a spuriously cancelled or
        // deadline-bailed body may have returned a partial value.
        // Otherwise the validator re-executes, making its own writes
        // final (condition (e)'s re-execution).
        cancelSlot(K, ForceReexec ? nullptr : &Correct);
        if (!quiesceSlot(K))
          return;
        if (Window.armed() && Ord > 0)
          Window.push(SlotBad);

        Attempt *Match = acceptableAttempt(K, ForceReexec, Correct);
        std::optional<U> Local;
        int64_t SegNs = 0;
        if (Match) {
          if (Tr)
            Tr->record(SpecEventKind::ValidateAccept, UI, Match->TraceId,
                       JobCtx);
          if (Match->Err) {
            FirstValidErr = Match->Err;
            return;
          }
          Correct = *Match->Out;
          Local = std::move(Match->Local);
          SegNs = Match->BodyNs;
        } else {
          // Misprediction (or a stale valid run that was overwritten by a
          // later garbage attempt): re-execute on the validator thread
          // (rule CHECK's consumer re-execution). The slot is quiescent,
          // so this execution's writes land last. Don't start an
          // authoritative chunk we already have no budget for.
          if (expired(UI))
            return;
          ++Stats.Reexecutions;
          if (Tr)
            Tr->record(SpecEventKind::Reexecute, UI, 0, JobCtx);
          if (!execSegment(segBegin(K), segEnd(K), Correct, Local, SegNs))
            return;
        }
        if (!finalizeSegment(UI, *Local))
          return;
        if (Tuner.measuring())
          Tuner.note(SegNs, Ord > 0, SlotBad);
      }
    }

    /// Loads slot item \p I, riding out a chainer's reserve-to-publish
    /// window. Returns nullptr only if the reservation was released.
    Attempt *slotItem(Slot &S, int I) {
      Attempt *A = S.Items[I].load(std::memory_order_acquire);
      while (!A) {
        if (S.Count.load(std::memory_order_acquire) <= I)
          return nullptr;
        std::this_thread::yield();
        A = S.Items[I].load(std::memory_order_acquire);
      }
      return A;
    }

    /// Cancels slot \p K's attempts — every one, or with \p Correct only
    /// those whose input differs from it (telemetry: a Cancel event per
    /// attempt that was neither done nor already cancelled).
    void cancelSlot(int64_t K, const T *Correct = nullptr) {
      Slot &S = Slots[static_cast<size_t>(K)];
      const int C = S.Count.load(std::memory_order_acquire);
      for (int I = 0; I < C; ++I) {
        Attempt *A = slotItem(S, I);
        bool InCmpThrew = false;
        if (!A ||
            (Correct && guardedEqual(Equal, FP, *A->In, *Correct, InCmpThrew)))
          continue;
        if (Tr && !A->Done.load(std::memory_order_acquire) &&
            !A->CancelFlag.load(std::memory_order_acquire))
          Tr->record(SpecEventKind::Cancel, userIdx(K), A->TraceId, JobCtx);
        A->CancelFlag.store(true, std::memory_order_seq_cst);
      }
    }

    bool slotAllDone(int64_t K) {
      Slot &S = Slots[static_cast<size_t>(K)];
      const int C = S.Count.load(std::memory_order_acquire);
      for (int I = 0; I < C; ++I) {
        Attempt *A = S.Items[I].load(std::memory_order_acquire);
        if (!A || !A->Done.load(std::memory_order_seq_cst))
          return false;
      }
      return true;
    }

    /// Claims an attempt of slot \p K that sits unclaimed in an executor
    /// queue, or returns nullptr. A corrective is queued only once its
    /// predecessor's body is over, so running it here keeps attempts of
    /// one segment apart.
    Attempt *claimQueued(int64_t K) {
      Slot &S = Slots[static_cast<size_t>(K)];
      const int C = S.Count.load(std::memory_order_acquire);
      for (int I = 0; I < C; ++I) {
        Attempt *A = S.Items[I].load(std::memory_order_acquire);
        if (!A)
          continue;
        if (std::optional<uint64_t> Ticket = A->queuedTicket())
          if (A->claim(*Ticket)) {
            Run.Stale.fetch_add(1, std::memory_order_seq_cst);
            return A;
          }
      }
      return nullptr;
    }

    /// Waits until every attempt in slot \p K is done, choosing between
    /// running the slot's queued attempts inline and parking on the
    /// run's eventcount. Returns false, with the run timed out, if the
    /// deadline expired first.
    ///
    /// The validator helps only slot \p K: it claims a queued attempt
    /// of that slot (its task in the executor then loses the claim and
    /// only retires) and never pops an arbitrary task. A popped task
    /// could be a later slot's wrong-input attempt, which only this
    /// thread would cancel — run inline here, it spins out its whole
    /// budget. Claiming is also the liveness argument for nested runs
    /// and for executors whose every worker is blocked: each attempt of
    /// the slot is running on some thread, queued (the validator runs
    /// it), or about to be queued by an attempt that is running.
    ///
    /// Help-vs-park policy. Running an attempt inline has a cost: the
    /// validator cannot accept/finalize the segments it waits for while
    /// it runs one, and a body it runs allocates on *this* thread's
    /// malloc arena — alternating bodies between the validator and a
    /// worker makes their multi-megabyte scratch buffers bounce between
    /// arenas, and glibc then returns them to the OS and page-faults
    /// them back in every run. So:
    ///
    ///  - On a worker thread (a nested run), claim immediately: the
    ///    nested attempts sit in this thread's own deque and running
    ///    them inline is the fast path.
    ///  - On the run's validator thread, claim eagerly only while no
    ///    other thread has claimed any of the wave's attempts — the
    ///    workers are still waking up (or the executor is saturated by
    ///    other runs), and inline execution beats a park/wake round
    ///    trip per wave.
    ///  - Once a worker is actively claiming attempts, park, and claim
    ///    only after a full grace timeout finds the slot unchanged: a
    ///    parked validator never races an awake worker for a queued
    ///    attempt, so bodies stay on worker threads and the validator
    ///    accepts each segment the moment it completes.
    ///
    /// An attempt is queued by whoever dispatches it before that thread
    /// retires through attemptFinished(), whose notify wakes a parked
    /// validator.
    bool quiesceSlot(int64_t K) {
      const bool OnWorker = Ex.onWorkerThread();
      bool GracePassed = false;
      for (;;) {
        if (slotAllDone(K))
          return true;
        if (expired(userIdx(K)))
          return false;
        const bool Eager =
            OnWorker || !Run.ForeignClaim.load(std::memory_order_relaxed);
        if (Eager || GracePassed) {
          if (Attempt *A = claimQueued(K)) {
            runAttempt(A);
            GracePassed = false;
            continue;
          }
        }
        const uint64_t Ticket = Run.EC.prepareWait();
        if (slotAllDone(K)) {
          Run.EC.cancelWait();
          return true;
        }
        if (Eager) {
          // An attempt may have been queued after the failed claim: run
          // it instead of parking on it.
          if (Attempt *A = claimQueued(K)) {
            Run.EC.cancelWait();
            runAttempt(A);
            continue;
          }
        }
        if (!Run.EC.waitFor(Ticket, std::chrono::microseconds(500)))
          GracePassed = true;
      }
    }

    /// The attempt the validator may accept for slot \p K, or nullptr:
    /// the last attempt that actually executed (skipped correctives —
    /// cancelled before they were launched — wrote nothing and don't
    /// count), provided it ran with the correct input and was neither
    /// cancelled nor observed cancellation. The slot is quiesced when
    /// called.
    Attempt *acceptableAttempt(int64_t K, bool ForceReexec,
                               const T &Correct) {
      Slot &S = Slots[static_cast<size_t>(K)];
      const int C = S.Count.load(std::memory_order_acquire);
      Attempt *LastReal = nullptr;
      for (int I = 0; I < C; ++I) {
        Attempt *A = S.Items[I].load(std::memory_order_acquire);
        if (!A)
          continue;
        // Crashed attempts compete for the last-finisher position (their
        // partial writes may have landed last, so the slot needs a
        // re-execution) but are never themselves acceptable.
        if ((A->Out || A->Err || A->Crashed) &&
            (!LastReal || A->FinishStamp > LastReal->FinishStamp))
          LastReal = A;
      }
      if (!LastReal || ForceReexec || LastReal->Crashed ||
          LastReal->CancelFlag.load(std::memory_order_seq_cst) ||
          LastReal->ObservedCancel.load(std::memory_order_relaxed))
        return nullptr;
      bool MatchCmpThrew = false;
      if (!guardedEqual(Equal, FP, *LastReal->In, Correct, MatchCmpThrew))
        return nullptr;
      return LastReal;
    }

    //===---------------- stride candidate (T-dependent) -----------------===//

    /// Feeds one validated (iteration index, loop-carried value)
    /// observation to the stride extrapolator (arithmetic T only).
    void observe(int64_t Idx, const T &Val) {
      if constexpr (std::is_arithmetic_v<T>) {
        ObsIdx0 = ObsIdx1;
        ObsVal0 = ObsVal1;
        HaveTwoObs = HaveObs;
        ObsIdx1 = Idx;
        ObsVal1 = Val;
        HaveObs = true;
      } else {
        (void)Idx;
        (void)Val;
      }
    }

    /// The stride candidate's prediction for a segment starting at
    /// iteration \p B: linear extrapolation through the last two
    /// validated observations. Left disengaged until two observations at
    /// distinct indices exist (or always, for non-arithmetic T).
    void stridePredict(int64_t B, std::optional<T> &Out) {
      if constexpr (std::is_arithmetic_v<T>) {
        if (!HaveTwoObs || ObsIdx1 == ObsIdx0)
          return;
        const double Slope =
            (static_cast<double>(ObsVal1) - static_cast<double>(ObsVal0)) /
            static_cast<double>(ObsIdx1 - ObsIdx0);
        Out.emplace(static_cast<T>(
            static_cast<double>(ObsVal1) +
            Slope * static_cast<double>(B - ObsIdx1)));
      } else {
        (void)B;
        (void)Out;
      }
    }

    //===---------------- state ------------------------------------------===//

    const int64_t Low, High, IndexBase;
    InitFn &Init;
    BodyFn &Body;
    PredictorFn &Predictor;
    FinalFn &Finalize;
    SpecExecutor &Ex;
    Eq &Equal;
    SpeculationStats &Stats;
    const ValidationMode Mode;
    Tracer *const Tr;
    /// The serving-layer job context stamped onto every event this run
    /// records (zero outside specd — see SpecConfig::traceContext()).
    const TraceContext JobCtx;
    FaultPlan *const FP;
    const std::chrono::nanoseconds CfgDeadline;
    const Clock::time_point Deadline;
    const bool HasDeadline;
    const int64_t W;
    /// Crash containment (SpecConfig::shield() / attemptBudget()); the
    /// budget workers arm is Tuner.budgetNs().
    const bool Shield;
    detail::ChunkTuner Tuner;
    detail::BadRateWindow Window;
    detail::CandidateTally Cands;

    detail::SegRunSync Run;
    std::vector<Slot> Slots;

    /// Current wave plan (validator-written before dispatch, read-only
    /// for workers during the wave). Segment K of the wave covers
    /// [segBegin(K), segEnd(K)) and has ordinal WaveOrd0 + K.
    std::vector<std::optional<T>> WavePred;
    /// Per-segment candidate predictions (profile-guided runs only;
    /// validator-only — workers never read the shadow candidates).
    std::vector<std::array<std::optional<T>, detail::NumCandidates>>
        WaveCand;
    int64_t WaveCount = 0;
    int64_t WaveOrd0 = 0;
    int64_t WaveB0 = 0;

    /// The stride extrapolator's observations; the value storage
    /// collapses to a char when T is not arithmetic (the candidate is
    /// then never engaged).
    bool HaveObs = false, HaveTwoObs = false;
    int64_t ObsIdx1 = 0, ObsIdx0 = 0;
    std::conditional_t<std::is_arithmetic_v<T>, T, char> ObsVal1{},
        ObsVal0{};

    /// Run outcome flags (validator only).
    bool Degraded = false;
    bool TimedOut = false;
    int64_t TimeoutIdx = 0;
    std::exception_ptr FirstValidErr;
  };

  static SpecExecutor &resolveExecutor(const SpecConfig &Cfg,
                                       std::optional<SpecExecutor> &Transient) {
    if (Cfg.executor())
      return *Cfg.executor();
    if (Cfg.threads() != 0) {
      Transient.emplace(Cfg.threads());
      // A transient executor lives exactly as long as the run, so the
      // run's fault plan can drive its task-timing sites too. The shared
      // process-wide executor is never armed implicitly: other runs use
      // it concurrently.
      if (Cfg.faults())
        Transient->injectFaults(Cfg.faults());
      return *Transient;
    }
    return *SpecExecutor::defaultShard();
  }

  /// The absolute deadline of a run starting now (time_point::max() when
  /// the config has none).
  static std::chrono::steady_clock::time_point
  resolveDeadline(const SpecConfig &Cfg) {
    if (Cfg.deadline() <= std::chrono::nanoseconds::zero())
      return std::chrono::steady_clock::time_point::max();
    return std::chrono::steady_clock::now() + Cfg.deadline();
  }

  /// Calls the user comparator under the ComparatorThrow injection site,
  /// swallowing any exception: a throwing comparator yields "not equal"
  /// (the pessimistic answer — the validator then re-executes) and sets
  /// \p Threw so callers can account the prediction point as failed. User
  /// comparator exceptions therefore never propagate from a speculative
  /// validation path.
  template <typename Eq, typename T>
  static bool guardedEqual(Eq &Equal, FaultPlan *FP, const T &A, const T &B,
                           bool &Threw) {
    try {
      if (FP)
        FP->maybeThrow(FaultSite::ComparatorThrow);
      return Equal(A, B);
    } catch (...) {
      Threw = true;
      return false;
    }
  }
};

} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_SPECULATION_H
