#ifndef MOPE_COMMON_THREAD_ANNOTATIONS_H_
#define MOPE_COMMON_THREAD_ANNOTATIONS_H_

/// \file thread_annotations.h
/// Clang Thread Safety Analysis capability macros, plus the annotated lock
/// wrappers the rest of the tree is required to use (linter rule R9).
///
/// The locking contract of every mutex-owning class in this repo is written
/// in the type system, not in comments: members carry MOPE_GUARDED_BY, the
/// `*Locked` private methods carry MOPE_REQUIRES, and public entry points
/// that take the lock themselves carry MOPE_EXCLUDES. A Clang build with
/// `-DMOPE_THREAD_SAFETY=ON` (the `clang-tsa` preset) promotes
/// -Wthread-safety to an error, so an unguarded read of auditor or proxy
/// state is a *compile failure*, exactly like a dropped Status. On GCC (and
/// any compiler without the attributes) every macro expands to nothing and
/// the wrappers are plain thin shims over the standard primitives.
///
/// Two layers:
///   1. MOPE_* macros — direct spellings of the Clang capability attributes
///      (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
///   2. mope::Mutex / mope::SharedMutex / mope::MutexLock /
///      mope::ReaderMutexLock / mope::WriterMutexLock / mope::CondVar —
///      annotated wrappers. Outside src/common/ these are the only legal
///      mutex types (linter rule R9); the raw standard types would be
///      invisible to the analysis.
///
/// Lock ranking (the dynamic complement): every wrapper mutex may carry a
/// rank from mope::lock_rank. When rank checks are compiled in (default in
/// !NDEBUG builds, forced on in the sanitizer presets via
/// MOPE_LOCK_RANK_CHECKS=1) a thread acquiring a ranked mutex must hold only
/// strictly-smaller ranks, so a lock-order inversion aborts at the exact
/// acquisition site the *first* time it runs — tsan's second_deadlock_stack
/// without needing the interleaving. Rank 0 (the default) opts out. The
/// capability map and the ordering rules live in DESIGN.md §8.

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Attribute macros. Clang-only: GCC would warn on the unknown attributes and
// -Werror would turn that into a build break, so everything vanishes there.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define MOPE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MOPE_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a capability ("mutex", "shared_mutex", "role", ...).
#define MOPE_CAPABILITY(x) MOPE_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define MOPE_SCOPED_CAPABILITY MOPE_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the capability.
#define MOPE_GUARDED_BY(x) MOPE_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded (the pointer itself is not).
#define MOPE_PT_GUARDED_BY(x) MOPE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Static ordering hints between capabilities.
#define MOPE_ACQUIRED_BEFORE(...) \
  MOPE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define MOPE_ACQUIRED_AFTER(...) \
  MOPE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// The function may only be called while holding the capability (the
/// `*Locked` private-method convention).
#define MOPE_REQUIRES(...) \
  MOPE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define MOPE_REQUIRES_SHARED(...) \
  MOPE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// The function acquires/releases the capability itself.
#define MOPE_ACQUIRE(...) \
  MOPE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MOPE_ACQUIRE_SHARED(...) \
  MOPE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define MOPE_RELEASE(...) \
  MOPE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MOPE_RELEASE_SHARED(...) \
  MOPE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define MOPE_TRY_ACQUIRE(...) \
  MOPE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define MOPE_TRY_ACQUIRE_SHARED(...) \
  MOPE_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

/// The function must be called with the capability *not* held (it will take
/// it itself; calling with it held would self-deadlock).
#define MOPE_EXCLUDES(...) MOPE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime claim that the capability is held (for code the analysis cannot
/// follow, e.g. a lock taken by a caller through an opaque interface).
#define MOPE_ASSERT_CAPABILITY(x) MOPE_THREAD_ANNOTATION(assert_capability(x))

/// Accessor returning the capability that guards something.
#define MOPE_RETURN_CAPABILITY(x) MOPE_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch of last resort; every use needs a justification comment.
#define MOPE_NO_THREAD_SAFETY_ANALYSIS \
  MOPE_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Lock ranks. Smaller rank = acquired earlier (outermost). A thread may only
// acquire a ranked mutex whose rank is strictly greater than every rank it
// already holds; equal rank catches accidental re-entry (self-deadlock on a
// non-recursive mutex). See DESIGN.md §8 for the full capability map.
// ---------------------------------------------------------------------------

// Rank checking defaults to debug builds; the sanitizer presets force it on
// (they already pay for instrumentation) so CI exercises the ordering rules
// even though the test presets build RelWithDebInfo.
#if !defined(MOPE_LOCK_RANK_CHECKS)
#if defined(NDEBUG)
#define MOPE_LOCK_RANK_CHECKS 0
#else
#define MOPE_LOCK_RANK_CHECKS 1
#endif
#endif

namespace mope {
namespace lock_rank {

inline constexpr int kNone = 0;               ///< Unranked: no checking.
inline constexpr int kProxy = 10;             ///< proxy::Proxy::mutex_
inline constexpr int kOpeMemo = 15;           ///< ope::OpeScheme memo mutex
inline constexpr int kClientConnection = 20;  ///< net::RemoteConnection::mutex_
inline constexpr int kServerAcceptQueue = 30; ///< net::TcpServer::queue_mutex_
inline constexpr int kDispatcher = 40;        ///< net::WireDispatcher::mutex_
inline constexpr int kLeakageAuditor = 50;    ///< obs::LeakageAuditor::mutex_
inline constexpr int kStorageWal = 54;        ///< storage::Wal::mutex_
inline constexpr int kConnectionRegistry = 60;///< proxy scheme registry
inline constexpr int kFlightRecorder = 71;    ///< obs::FlightRecorder::mutex_
inline constexpr int kTimeSeriesSampler = 72; ///< obs::TimeSeriesSampler::mutex_
inline constexpr int kAlertEngine = 73;       ///< obs::AlertEngine::mutex_
inline constexpr int kLogSink = 75;           ///< obs::Logger::mutex_
inline constexpr int kMetricsRegistry = 80;   ///< obs::MetricsRegistry::mutex_

namespace detail {
/// Aborts (with both ranks on stderr) if `rank` is <= the largest rank this
/// thread already holds; otherwise records the acquisition.
void RankAcquire(int rank);
/// Forgets one held instance of `rank` (tolerates out-of-LIFO release).
void RankRelease(int rank);
}  // namespace detail

inline void NoteAcquire(int rank) {
#if MOPE_LOCK_RANK_CHECKS
  if (rank != kNone) detail::RankAcquire(rank);
#else
  (void)rank;
#endif
}

inline void NoteRelease(int rank) {
#if MOPE_LOCK_RANK_CHECKS
  if (rank != kNone) detail::RankRelease(rank);
#else
  (void)rank;
#endif
}

}  // namespace lock_rank

// ---------------------------------------------------------------------------
// Annotated wrappers.
// ---------------------------------------------------------------------------

/// Exclusive mutex. Thin over the standard mutex; adds the capability
/// annotations and the optional lock rank.
class MOPE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(int rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MOPE_ACQUIRE() {
    lock_rank::NoteAcquire(rank_);
    mu_.lock();
  }
  void Unlock() MOPE_RELEASE() {
    mu_.unlock();
    lock_rank::NoteRelease(rank_);
  }
  bool TryLock() MOPE_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::NoteAcquire(rank_);
    return true;
  }

  /// BasicLockable spellings so CondVar (std::condition_variable_any
  /// underneath) can release and reacquire during a wait. Not for general
  /// use — take a MutexLock.
  void lock() MOPE_ACQUIRE() { Lock(); }
  void unlock() MOPE_RELEASE() { Unlock(); }

  int rank() const { return rank_; }

 private:
  std::mutex mu_;
  const int rank_ = lock_rank::kNone;
};

/// Reader/writer mutex (for the fine-grained latching ROADMAP item 2 needs;
/// no production user yet).
class MOPE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(int rank) : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() MOPE_ACQUIRE() {
    lock_rank::NoteAcquire(rank_);
    mu_.lock();
  }
  void Unlock() MOPE_RELEASE() {
    mu_.unlock();
    lock_rank::NoteRelease(rank_);
  }
  void LockShared() MOPE_ACQUIRE_SHARED() {
    lock_rank::NoteAcquire(rank_);
    mu_.lock_shared();
  }
  void UnlockShared() MOPE_RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank::NoteRelease(rank_);
  }

  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const int rank_ = lock_rank::kNone;
};

/// RAII exclusive lock over a Mutex (the repo's lock_guard).
class MOPE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) MOPE_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() MOPE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex* const mu_;
};

/// RAII exclusive lock over a SharedMutex.
class MOPE_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) MOPE_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() MOPE_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class MOPE_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) MOPE_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() MOPE_RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable paired with mope::Mutex. Wait() atomically releases
/// the lock's mutex, blocks, and reacquires before returning — a net no-op
/// on the capability state, which is why it carries no annotation. Callers
/// re-check their predicate in a `while` loop (spurious wakeups, and the
/// analysis cannot see the predicate anyway).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(*lock.mu_); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace mope

#endif  // MOPE_COMMON_THREAD_ANNOTATIONS_H_
