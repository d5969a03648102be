"""CLI behavior: exit codes, determinism, and golden outputs."""

import contextlib
import copy
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgal import analysis
from modgal.cli import main
from modgal.families import fixture_names
from modgal.modular_data import (
    MAX_CONDUCTOR,
    MAX_ENTRY_BITS,
    MAX_RANK,
    InvalidModularData,
    loads_modular_data,
    save_modular_data,
)
from modgal.pointed import FiniteAbelianGroup, build_pointed

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", str(FIXTURE_DIR / "so5_3half_ad.mtc"))
        assert code == 0
        assert "valid" in out

    def test_invalid_data(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtc"
        doc = json.loads((FIXTURE_DIR / "fibonacci.mtc").read_text())
        doc["s"][0][1] = [[2, 1, 0]]  # breaks symmetry
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "not symmetric" in out

    def test_invalid_verlinde_table(self, tmp_path, capsys, phase2_invalid):
        for name, data in phase2_invalid.items():
            bad = tmp_path / f"{name}.mtc"
            save_modular_data(data, bad)
            code, out, _ = run(capsys, "validate", str(bad))
            assert code == 1, name
            assert "INVALID" in out and "fusion coefficient" in out, name

    def test_truncated_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtc"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.mtc")
        assert code == 2 and "no such file" in err

    @pytest.mark.parametrize(
        "path,value",
        [
            (("conductor",), 0),
            (("s", 0, 0), [1, 1, 0]),
            (("s", 0, 0), [[1, 1, 0, 5]]),
            (("s", 0, 0), [[1, 0, 0]]),
            (("labels",), ["1"]),
            (("conductor",), 5.9),
            (("t",), [0, 2.7]),
            (("conductor",), True),
            (("rank",), "2"),
            (("labels",), "ab"),
            (("labels",), [None, {"x": 1}]),
            ((), {"conductor": 1, "rank": 0, "labels": [], "t": [], "s": []}),
            (("labels",), ["1", "\u00e9"]),
            (("conductor",), MAX_CONDUCTOR + 1),
            (("rank",), MAX_RANK + 1),
        ],
        ids=[
            "conductor-0", "flat-term", "four-element-term", "zero-denominator", "label-count",
            "float-conductor", "float-t", "bool-conductor", "string-rank",
            "string-labels", "non-string-labels", "rank-0", "not-utf8", "conductor-above-bound",
            "rank-above-bound",
        ],
    )
    def test_malformed_file_names_the_file(self, tmp_path, capsys, path, value):
        doc = json.loads((FIXTURE_DIR / "fibonacci.mtc").read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        if path:
            target[path[-1]] = value
        else:
            doc = value
        bad = tmp_path / "bad.mtc"
        # Latin-1 writes ASCII as UTF-8 does, and any other character as
        # a byte that is not valid UTF-8
        bad.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert str(bad) in err
        assert "Traceback" not in err


class TestReport:
    def test_sl2_12(self, capsys):
        code, out, _ = run(capsys, "report", str(FIXTURE_DIR / "sl2_12_A0.mtc"))
        assert code == 0
        assert "orbits (3+2)" in out
        assert "simple" in out

    def test_ising_diagnosis(self, capsys):
        code, out, _ = run(capsys, "report", str(FIXTURE_DIR / "ising.mtc"))
        assert code == 0
        assert "ising_x_transitive" in out

    def test_fibonacci_transitive(self, capsys):
        code, out, _ = run(capsys, "report", str(FIXTURE_DIR / "fibonacci.mtc"))
        assert code == 0
        assert "transitive: yes" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(
            capsys, "report", "--json", str(FIXTURE_DIR / "fibonacci.mtc")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["transitive"] is True and doc["ok"] is True

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "report", str(FIXTURE_DIR / "ising.mtc"))
        _, second, _ = run(capsys, "report", str(FIXTURE_DIR / "ising.mtc"))
        assert first == second

    def test_a_failed_theorem_check_exits_1(self, capsys, monkeypatch):
        def planted(data):
            raise InvalidModularData("planted theorem-check failure")

        monkeypatch.setattr(analysis, "adjoint_part", planted)
        code, out, err = run(capsys, "report", "--json", str(FIXTURE_DIR / "so5_3half_ad.mtc"))
        assert code == 1 and not out
        assert "planted theorem-check failure" in err

    def test_precision_variable_ignored(self, capsys, monkeypatch):
        # the sign oracle starts at 64 bits whatever the environment holds
        monkeypatch.setenv("MODGAL_PRECISION", "0")
        code, out, _ = run(capsys, "report", "--json", str(FIXTURE_DIR / "fibonacci.mtc"))
        assert code == 0 and json.loads(out)["ok"] is True


class TestPointed:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "pointed", "2,30,30", "--count-only")
        assert code == 0 and "280" in out

    def test_rank_1800_cyclic(self, capsys):
        code, out, _ = run(capsys, "pointed", "1800", "--count-only")
        assert code == 0 and "36" in out

    def test_full_build(self, capsys):
        code, out, _ = run(capsys, "pointed", "5")
        assert code == 0
        assert "orbits (2)" in out and "pass" in out

    def test_explicit_form(self, capsys):
        code, out, _ = run(capsys, "pointed", "3", "--form", "2")
        assert code == 0 and "orbits (2)" in out

    def test_order_guard(self, capsys):
        code, _, err = run(capsys, "pointed", "128")
        assert code == 2 and "count-only" in err

    @pytest.mark.parametrize("group", [",".join(["2"] * 22), "2305843009213693951"])
    def test_count_only_refuses_what_it_cannot_finish(self, capsys, group):
        # 2^22 divisor tuples; a factor whose least prime is 2^61 - 1
        start = time.monotonic()
        code, out, err = run(capsys, "pointed", group, "--count-only")
        assert time.monotonic() - start < 1
        assert code == 2 and not out and "100000" in err

    def test_bad_chain(self, capsys):
        code, _, err = run(capsys, "pointed", "6,4", "--count-only")
        assert code == 2 and "chain" in err


class TestTables:
    def test_check_16(self, capsys):
        code, out, _ = run(capsys, "tables", "--check", "16")
        assert code == 0
        assert "0 failure(s)" in out

    def test_check_9(self, capsys):
        code, out, _ = run(capsys, "tables", "--check", "9")
        assert code == 0

    @pytest.mark.parametrize(
        "level", ["0", "-8", "256", "81", "1", "1000000007", "2305843009213693951", "1000000000039"]
    )
    def test_refuses_unverified_levels(self, capsys, level):
        start = time.monotonic()
        code, out, err = run(capsys, "tables", "--check", level)
        assert time.monotonic() - start < 1
        assert code == 2
        assert not out and level in err


    def test_refuses_a_level_sum_above_the_bound(self, capsys):
        # the product of the primes below 3000 (1,274 digits; 3,005 rows
        # without the bound), 229^2 alone, and 211^2 * 31^3, whose levels
        # 44732 and 30783 pass one at a time
        primes = [p for p in range(2, 3000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        for level in (math.prod(primes), 229**2, 211**2 * 31**3):
            start = time.monotonic()
            code, out, err = run(capsys, "tables", "--check", str(level))
            assert time.monotonic() - start < 1
            assert code == 2 and not out
            assert str(level) in err and "above 50000, the largest sum checked" in err


class TestProductAndFixture:
    def test_product_then_report(self, tmp_path, capsys):
        fib = str(FIXTURE_DIR / "fibonacci.mtc")
        out_path = tmp_path / "fxf.mtc"
        code, _, _ = run(capsys, "product", fib, fib, "-o", str(out_path))
        assert code == 0 and out_path.exists()
        code, out, _ = run(capsys, "report", str(out_path))
        assert code == 0 and "orbits (2+2)" in out

    def test_coprime_product_transitive(self, tmp_path, capsys):
        fib = str(FIXTURE_DIR / "fibonacci.mtc")
        s7 = str(FIXTURE_DIR / "sl2_7_ad.mtc")
        out_path = tmp_path / "prod.mtc"
        run(capsys, "product", fib, s7, "-o", str(out_path))
        code, out, _ = run(capsys, "report", str(out_path))
        assert code == 0 and "transitive: yes" in out

    def test_product_above_the_conductor_bound(self, tmp_path, capsys):
        paths = []
        for n in (64, 27):
            path = tmp_path / f"n{n}.mtc"
            path.write_text(json.dumps(
                {"conductor": n, "rank": 1, "labels": ["1"], "t": [0], "s": [[[[1, 1, 0]]]]}
            ))
            paths.append(str(path))
        out_path = tmp_path / "prod.mtc"
        code, out, err = run(capsys, "product", *paths, "-o", str(out_path))
        assert code == 2 and not out
        assert paths[0] in err and paths[1] in err and str(MAX_CONDUCTOR) in err
        assert not out_path.exists()

    def test_product_above_the_rank_bound(self, tmp_path, capsys):
        paths = []
        for factors in ((3, 3), (2, 4)):
            path = tmp_path / f"z{'x'.join(map(str, factors))}.mtc"
            save_modular_data(build_pointed(FiniteAbelianGroup(factors)), path)
            paths.append(str(path))
        out_path = tmp_path / "prod.mtc"
        code, out, err = run(capsys, "product", *paths, "-o", str(out_path))
        assert 9 * 8 > MAX_RANK
        assert code == 2 and not out
        assert paths[0] in err and paths[1] in err and str(MAX_RANK) in err
        assert not out_path.exists()

    def test_product_above_the_entry_bound(self, tmp_path, capsys):
        # each factor loads, but s_00 of the product is 2^(MAX_ENTRY_BITS + 2)
        paths = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.mtc"
            path.write_text(json.dumps({
                "conductor": 1, "rank": 1, "labels": ["1"], "t": [0],
                "s": [[[[1 << (MAX_ENTRY_BITS // 2 + 1), 1, 0]]]],
            }))
            paths.append(str(path))
        out_path = tmp_path / "prod.mtc"
        code, out, err = run(capsys, "product", *paths, "-o", str(out_path))
        assert code == 2 and not out
        assert paths[0] in err and paths[1] in err and f"2^{MAX_ENTRY_BITS}" in err
        assert not out_path.exists()

    def test_fixture_roundtrip(self, tmp_path, capsys):
        for name in fixture_names():
            out_path = tmp_path / f"{name}.mtc"
            code, _, _ = run(capsys, "fixture", name, "-o", str(out_path))
            assert code == 0, name
            assert out_path.read_text() == (FIXTURE_DIR / f"{name}.mtc").read_text(), name

    def test_unknown_fixture(self, tmp_path, capsys):
        code, _, err = run(capsys, "fixture", "nope", "-o", str(tmp_path / "x.mtc"))
        assert code == 2


# -- fuzzing the loader and the CLI -------------------------------------------

_SEEDS = {
    name: json.loads((FIXTURE_DIR / f"{name}.mtc").read_text()) for name in ("fibonacci", "ising")
}
_VALUES = st.one_of(
    st.integers(-8, 8),
    st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64)),
    st.floats(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.none()), max_size=3),
    st.none(),
)


def _json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# No example database: saving it takes longer than running the examples.
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_mutated_files_fail_cleanly(data):
    """A catalog file with one to three JSON values replaced: loading
    raises nothing but ``InvalidModularData``, and ``validate`` and
    ``report --json`` end with an exit code."""
    doc = copy.deepcopy(_SEEDS[data.draw(st.sampled_from(sorted(_SEEDS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        doc = _replaced(doc, path, data.draw(_VALUES))
    text = json.dumps(doc)
    try:
        loads_modular_data(text)
    except InvalidModularData:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.mtc"
        path.write_text(text)
        for argv in (["validate", str(path)], ["report", "--json", str(path)]):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
            assert code in (0, 1, 2), (argv, text)
