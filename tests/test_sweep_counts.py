"""One pass of the benchmark's pointed sweep, counted.

``bench/layers.py`` records in ``SWEEP_COUNTS`` how many forms the
sweep constructs, how often it calls ``is_nondegenerate`` and
``gram_steps``, and how many forms the enumerator yields; a traced
benchmark run whose counts differ is marked incorrect.  This test
counts the same calls with plain wrappers and compares them with the
recorded numbers, read from the benchmark, so that drift fails here
first."""

import functools
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

from modgal import pointed  # noqa: E402


def _counting(counts, name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _counting_yields(counts, name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counts[name] += 1
            yield item

    return counted


def test_one_sweep_pass_makes_the_recorded_calls(monkeypatch, tmp_path):
    counts = Counter()
    spec = pointed.QuadraticFormSpec
    for name, owner, attr, wrap in (
        ("pointed.candidates", spec, "__post_init__", _counting),
        ("pointed.is_nondegenerate.calls", spec, "is_nondegenerate", _counting),
        ("pointed.gram_steps.calls", pointed, "gram_steps", _counting),
        ("pointed.forms_accepted", pointed, "enumerate_quadratic_forms", _counting_yields),
    ):
        monkeypatch.setattr(owner, attr, wrap(counts, name, getattr(owner, attr)))
    for op in workloads.setup("pointed_sweep", 1, tmp_path)(0):
        error, _ = op.check(op.call())
        assert error is None, (op.key, error)
    assert dict(counts) == layers.SWEEP_COUNTS
