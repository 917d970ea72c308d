// Priority + fair-share + plan-aware job queue for the serve subsystem.
//
// Scheduling policy, in order:
//   1. priority: the seed job of every batch comes from the highest
//      priority level with queued work;
//   2. fair share: within that level, tenants are served round-robin, so
//      a tenant that floods the queue cannot starve the others -- it only
//      competes for its own turn;
//   3. FIFO within a tenant's lane;
//   4. plan-aware batching: after the seed job is chosen, up to
//      max_batch-1 further queued jobs with the *same plan key* (same
//      compiled (circuit, noise, options) plan -- any tenant, any
//      priority) join the batch, so a burst of identical circuits is
//      dispatched together and shares one CompiledCircuit.
//
// The queue is NOT internally synchronized: the JobService serializes all
// queue calls under its own mutex (records' mutexes are taken briefly
// inside, service-mutex-then-record-mutex order everywhere). That
// external contract is machine-checked: the queue lives in ServiceCore
// as a QS_GUARDED_BY(mutex) member, so a clang -Wthread-safety build
// rejects any call made without the service mutex held.
//
// Every record is indexed twice (its tenant lane and its plan-key lane);
// whenever a job leaves the queue -- dispatched, expired, or cancelled --
// both entries are erased before the call returns, so the queue never
// pins a record (and its circuit copy) past its queue lifetime.
#ifndef QS_SERVE_JOB_QUEUE_H
#define QS_SERVE_JOB_QUEUE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/clock.h"
#include "serve/job.h"

namespace qs {

class FairShareQueue {
 public:
  using Record = std::shared_ptr<detail::JobRecord>;
  /// Time base of the dispatch timestamps handed to pop_batch; the
  /// caller reads them from the service's injected obs::Clock.
  using Clock = obs::TimeBase;

  /// One scheduling decision.
  struct Pop {
    /// Dispatched jobs, all sharing one plan key, already marked
    /// kRunning. Empty when nothing was dispatchable.
    std::vector<Record> batch;
    /// Jobs whose dispatch deadline had passed, already marked kExpired
    /// and signalled.
    std::vector<Record> expired;
  };

  /// Enqueues a job (status must be kQueued).
  void push(Record job);

  /// Erases one job's entries from both index structures (targeted scan
  /// of its tenant and plan-key lanes). Called on cancellation so a
  /// cancelled record is freed immediately instead of lingering as a
  /// stale entry in lanes no pop may ever revisit.
  void remove(const Record& job);

  /// Live records across both index structures must always agree; exposed
  /// for leak regression tests (0 once everything popped or cancelled).
  std::size_t indexed_records() const;

  /// Pops the next batch per the policy above. `now` is the dispatch
  /// timestamp used for deadline checks.
  Pop pop_batch(std::size_t max_batch, Clock::time_point now);

  /// Marks every still-queued job kCancelled as of `now` (signalling
  /// each, journalling each) and empties the queue. Returns how many
  /// jobs were cancelled.
  std::size_t cancel_all(Clock::time_point now);

 private:
  /// Pops the next live job from one tenant lane, diverting expired jobs.
  /// Returns nullptr when the lane is exhausted.
  Record take_live(std::deque<Record>& lane, Clock::time_point now,
                   std::vector<Record>& expired);

  /// Targeted erasure of one record from one index structure.
  void erase_from_priority(const Record& job);
  void erase_from_key(const Record& job);

  /// Tenant lanes per priority, highest priority first.
  std::map<int, std::map<std::string, std::deque<Record>>, std::greater<int>>
      by_priority_;
  /// Round-robin cursor: the tenant served last, per priority.
  std::map<int, std::string> last_tenant_;
  /// Submission-ordered lane per plan key, for batch gathering.
  std::unordered_map<std::uint64_t, std::deque<Record>> by_key_;
};

}  // namespace qs

#endif  // QS_SERVE_JOB_QUEUE_H
