// PASE_DCHECK: debug-only invariant checks for the packet hot path
// (PASE_CHECK, below, is the always-on form).
//
// `assert` disappears under NDEBUG — which includes the sanitizer CI legs,
// because they build RelWithDebInfo — so hot-path invariants guarded by
// plain asserts are never exercised where they matter most. PASE_DCHECK is
// active in any of:
//   - debug builds (NDEBUG unset),
//   - sanitizer builds (ASan/TSan detected via compiler macros), regardless
//     of NDEBUG, so the CI sanitizer matrix checks invariants too,
//   - builds defining PASE_FORCE_DCHECK.
// Everywhere else it compiles to nothing: release hot paths pay zero
// instructions per check. The condition stays inside an unevaluated sizeof
// so variables referenced only by checks don't warn as unused.
#pragma once

#include <cstdio>
#include <cstdlib>

#ifndef __has_feature
#define __has_feature(x) 0  // non-clang compilers
#endif

#if !defined(PASE_DCHECK_ENABLED)
#if !defined(NDEBUG) || defined(PASE_FORCE_DCHECK) ||         \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PASE_DCHECK_ENABLED 1
#else
#define PASE_DCHECK_ENABLED 0
#endif
#endif

#if PASE_DCHECK_ENABLED
#define PASE_DCHECK(cond)                                                   \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "PASE_DCHECK failed: %s (%s:%d)\n", #cond,       \
                   __FILE__, __LINE__);                                     \
      std::abort();                                                         \
    }                                                                       \
  } while (0)
#else
#define PASE_DCHECK(cond) static_cast<void>(sizeof((cond) ? 0 : 0))
#endif

// PASE_CHECK: always on, in every build. For guards whose failure would
// otherwise corrupt memory or silently reorder events; keep them off
// per-event paths unless the branch is as cheap as one compare.
#define PASE_CHECK(cond)                                                    \
  do {                                                                      \
    if (!(cond)) [[unlikely]] {                                             \
      std::fprintf(stderr, "PASE_CHECK failed: %s (%s:%d)\n", #cond,        \
                   __FILE__, __LINE__);                                     \
      std::abort();                                                         \
    }                                                                       \
  } while (0)
