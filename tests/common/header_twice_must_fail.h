// Included twice by header_twice_must_fail.cc. It carries #pragma once only
// when the control compile defines FRESHSEL_FIXTURE_PRAGMA_ONCE, so the
// check compile sees a header without it.
#ifdef FRESHSEL_FIXTURE_PRAGMA_ONCE
#pragma once
#endif

struct FixtureDefinedOnce {
  int value = 0;
};
