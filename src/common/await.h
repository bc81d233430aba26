// Blocking adapter for callback-style waits. Where an operation has a
// non-blocking form (register a callback, get answered later on some other
// thread), its blocking form is this wrapper around it rather than a second
// implementation, so both forms answer by the same rules.
#ifndef SRC_COMMON_AWAIT_H_
#define SRC_COMMON_AWAIT_H_

#include <condition_variable>
#include <memory>
#include <utility>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cuckoo {

// Run start(done), where done(value) must be called exactly once, on any
// thread (possibly inline before start returns), and block until it has.
// Returns that value.
template <typename T, typename Start>
T Await(Start&& start) {
  struct Result {
    Mutex mu;
    std::condition_variable cv;
    bool decided GUARDED_BY(mu) = false;
    T value GUARDED_BY(mu){};
  };
  // Shared: the callback may still be unwinding on its own thread after the
  // waiter has returned.
  auto result = std::make_shared<Result>();
  std::forward<Start>(start)([result](T value) {
    MutexLock lk(result->mu);
    result->value = std::move(value);
    result->decided = true;
    result->cv.notify_one();
  });
  MutexLock lk(result->mu);
  while (!result->decided) {
    result->cv.wait(lk.native_handle());
  }
  return std::move(result->value);
}

}  // namespace cuckoo

#endif  // SRC_COMMON_AWAIT_H_
