// Must-fail fixture for #pragma once, try_compiled by the root
// CMakeLists.txt: a header that defines a type, included twice. It must
// build when the header has #pragma once and be rejected when it has not,
// or the configure aborts. The tree's headers are held to the same test by
// the freshsel_all_headers_twice target (tests/CMakeLists.txt).

#include "header_twice_must_fail.h"
#include "header_twice_must_fail.h"

int FixtureValue() { return FixtureDefinedOnce{}.value; }
