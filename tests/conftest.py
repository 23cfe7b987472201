"""Shared fixture: `check_claim(name)` runs the `hc verify` registry entry
`_chk_<name>` at seed 42 once per test session, asserts that it passed within
its wall-time bound, and returns its PASS line.  Tests in several files that
state the same paper claim share the one run."""

import functools
import math
import time

import pytest

from hccycles.claims import SUITES

CLAIMS = {fn.__name__.removeprefix("_chk_"): (tag, fn) for checks in SUITES.values() for tag, fn in checks}

# Wall-time bounds in seconds.  A pair of claims once checked in one test
# splits that test's bound in half: bijection + length < 5 s, Poincare +
# multiparametric < 10 s.
WALL_S = {
    "bijection": 2.5,
    "length": 2.5,
    "poincare": 5.0,
    "multiparam": 5.0,
    "limit": 5.0,
}


@functools.cache
def _run(name):
    t0 = time.time()
    passed, detail = CLAIMS[name][1](42)
    return passed, detail, time.time() - t0


def _check(name):
    passed, detail, dt = _run(name)
    assert passed, detail
    assert dt < WALL_S.get(name, math.inf), f"{name}: {dt:.2f}s"
    return f"{CLAIMS[name][0]}: {detail}; {dt:.2f}s"


@pytest.fixture
def check_claim():
    return _check
