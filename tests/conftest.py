"""Shared test helpers: fields under test, random element generation and
a time and memory bound for far reads."""

import random
import signal
import tracemalloc
from contextlib import contextmanager

import pytest

from highwater import GF, QQ
from highwater.elements import Element
from highwater.fields import Field

FIELDS = [QQ, GF(5), GF(7), GF(11)]


@pytest.fixture(params=FIELDS, ids=lambda f: f"char{f.characteristic}")
def field(request) -> Field:
    return request.param


def random_scalar(field: Field, rng: random.Random):
    if field.characteristic == 0:
        num = rng.randint(-9, 9)
        den = rng.choice([1, 1, 2, 3, 4])
        return field.scalar(num, den)
    return field.scalar(rng.randrange(field.characteristic))


def random_element(field: Field, rng: random.Random,
                   support: int = 6, index_bound: int = 8) -> Element:
    keys = []
    for _ in range(rng.randint(1, support)):
        kind = rng.choice("aaassp")
        if kind == "a":
            keys.append(("a", rng.randint(-index_bound, index_bound)))
        elif kind == "s":
            keys.append(("s", rng.randint(1, index_bound)))
        else:
            keys.append(("p", rng.randint(1, 2),
                         3 * rng.randint(1, max(1, index_bound // 3))))
    terms = {}
    for k in keys:
        c = random_scalar(field, rng)
        if c:
            terms[k] = terms.get(k, field.zero) + c
    return Element(field, {k: c for k, c in terms.items() if c})


@contextmanager
def bounded(seconds: int, max_bytes: int | None):
    """Fail the block when it runs longer than ``seconds`` (by SIGALRM, so
    a cost linear in a subscript of 10^9 fails instead of hanging) or when
    the peak of its Python allocations reaches ``max_bytes``.  With
    ``max_bytes`` None only the time is bounded, and the block runs without
    the several-fold slowdown of tracing its allocations."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    if max_bytes is not None:
        tracemalloc.start()
    signal.alarm(seconds)
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        signal.alarm(0)
        tracemalloc.stop()
        signal.signal(signal.SIGALRM, old)
    assert max_bytes is None or peak < max_bytes, \
        f"peak allocation {peak} bytes"
