#ifndef MUSENET_TESTS_ALLOC_COUNTER_H_
#define MUSENET_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>

/// Number of global operator-new calls in the process so far, worker threads
/// included. A test binary that links alloc_counter.cc counts through its
/// replacement operator new, so a test can assert that a code region
/// allocates nothing.
extern std::atomic<int64_t> g_alloc_count;

#endif  // MUSENET_TESTS_ALLOC_COUNTER_H_
