"""CLI behavior: exit codes, determinism, and golden outputs."""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planted_centralizing, planted_perms

from modgal import analysis, cli
from modgal.cli import main
from modgal.families import fixture_names
from modgal.modular_data import (
    MAX_CONDUCTOR,
    MAX_ENTRY_BITS,
    MAX_RANK,
    InvalidModularData,
    load_modular_data,
    loads_modular_data,
    save_modular_data,
)
from modgal.pointed import FiniteAbelianGroup, build_pointed

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# s = ((1, i), (i, -1)) at N = 4: symmetric, s_00 = 1, lcm of the twist
# orders 4, and the dimension of object 1 is i
NON_REAL = {"conductor": 4, "rank": 2, "labels": ["1", "x"], "t": [0, 1],
            "s": [[[[1, 1, 0]], [[1, 1, 1]]], [[[1, 1, 1]], [[-1, 1, 0]]]]}


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

    def test_a_non_real_dimension_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtc"
        bad.write_text(json.dumps(NON_REAL))
        assert run(capsys, "validate", str(bad)) == (
            1, f"{bad}: INVALID\n  dimension at index 1 is not real\n", "")

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

    @pytest.mark.parametrize("verb", [["validate"], ["report"], ["report", "--json"]])
    def test_a_directory_is_an_input_error(self, tmp_path, capsys, verb):
        code, out, err = run(capsys, *verb, str(tmp_path))
        assert code == 2 and not out
        assert err.startswith(f"error: cannot read {tmp_path}: ") and "Traceback" not in err

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

    def test_invalid_data_stops_after_validation(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtc"
        bad.write_text(json.dumps(NON_REAL))
        assert run(capsys, "report", str(bad)) == (1, (
            f"input: {bad}\n"
            "conductor 4, rank 2\n"
            "validation: dimension at index 1 is not real\n"
        ), "")

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

    @pytest.mark.parametrize("name, plant, notes", [
        # every object centralizes every object: C(C(D)) is the whole
        ("fib_x_fib", lambda data: planted_centralizing(data, (frozenset(range(4)),) * 4), [
            "double centralizer fails for (0,)",
            "double centralizer fails for (0, 2)",
            "double centralizer fails for (0, 3)",
            "subcategory (0, 1, 2, 3): galois_closed=True, integral centralizer=False",
        ]),
        # sigma_hat swaps the unit and sigma on every generator
        ("ising", lambda data: planted_perms(data, (1, 0, 2)), [
            "subcategory (0, 2): galois_closed=False, integral centralizer=True",
            "adjoint subcategory is not closed under the Galois action",
        ]),
    ])
    def test_planted_theorem_failures_are_noted(self, capsys, monkeypatch, name, plant, notes):
        monkeypatch.setattr(cli, "load_modular_data", lambda path: plant(load_modular_data(path)))
        path = str(FIXTURE_DIR / f"{name}.mtc")
        code, out, err = run(capsys, "report", path)
        assert (code, err) == (1, "")
        assert "galois closure <=> integral centralizer: FAIL\n" in out
        assert [line for line in out.splitlines() if line.startswith("note: ")] == [
            f"note: {note}" for note in notes
        ]
        code, out, err = run(capsys, "report", "--json", path)
        doc = json.loads(out)
        assert (code, err) == (1, "")
        assert (doc["ok"], doc["closure_theorem_ok"], doc["notes"]) == (False, False, notes)

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
        assert "orbits (2)" in out
        # the count is of cyclic subgroups, a product over the primes of
        # the exponent, not a divisor sum
        assert out.splitlines()[-2:] == [
            "cyclic-subgroup count: 2",
            "direct computation agrees with the generator partition and the "
            "cyclic-subgroup count: pass",
        ]

    def test_explicit_form(self, capsys):
        code, out, _ = run(capsys, "pointed", "3", "--form", "2")
        assert code == 0 and "orbits (2)" in out

    @pytest.mark.parametrize(
        "group,form,err",
        [
            ("2", "0", "error: the quadratic form is degenerate\n"),
            ("3", "x", "error: bad form 'x': invalid literal for int() with base 10: 'x'\n"),
            ("3", "", "error: bad form '': invalid literal for int() with base 10: ''\n"),
        ],
        ids=["degenerate", "not-an-integer", "empty"],
    )
    def test_bad_form(self, capsys, group, form, err):
        assert run(capsys, "pointed", group, "--form", form) == (2, "", err)

    def test_gram_entries_beyond_int64(self, capsys):
        # 10^23 = 1 (mod 3), the modulus of Z/3
        assert run(capsys, "pointed", "3", "--form", str(10**23)) == run(
            capsys, "pointed", "3", "--form", "1")

    def test_order_guard(self, capsys):
        code, _, err = run(capsys, "pointed", "128")
        assert code == 2 and "count-only" in err

    @pytest.mark.parametrize("group", ["2305843009213693951"])
    def test_count_only_refuses_what_it_cannot_finish(self, capsys, group):
        # a factor whose least prime is 2^61 - 1
        start = time.monotonic()
        code, out, err = run(capsys, "pointed", group, "--count-only")
        assert time.monotonic() - start < 1
        assert code == 2 and not out and "100000" in err

    def test_count_only_counts_many_factors(self, capsys):
        # 22 factors of 2: 2^22 divisor tuples, but one prime
        start = time.monotonic()
        code, out, err = run(capsys, "pointed", ",".join(["2"] * 22), "--count-only")
        assert time.monotonic() - start < 1
        assert code == 0 and out.endswith(": 4194304 orbits\n") and not err

    def test_count_only_refuses_a_count_too_long_to_print(self, capsys):
        # 15,000 factors of 2 have 2^15000 cyclic subgroups, 4,516
        # decimal digits, more than Python converts to a string
        start = time.monotonic()
        code, out, err = run(capsys, "pointed", ",".join(["2"] * 15000), "--count-only")
        assert time.monotonic() - start < 1
        assert code == 2 and not out
        assert err == (
            "error: the orbit count of the group with 15000 invariant factors and exponent 2 "
            f"has more than {sys.get_int_max_str_digits()} decimal digits, the most that can "
            "be printed\n"
        )

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

    def test_an_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        fib = str(FIXTURE_DIR / "fibonacci.mtc")
        for output in (tmp_path / "missing" / "x.mtc", tmp_path):
            for argv in (["product", fib, fib], ["fixture", "ising"]):
                code, out, err = run(capsys, *argv, "-o", str(output))
                assert code == 2 and not out, argv
                assert err.startswith(f"error: cannot write {output}: ") and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_fixture_roundtrip(self, tmp_path, capsys):
        for name in fixture_names():
            out_path = tmp_path / f"{name}.mtc"
            code, _, _ = run(capsys, "fixture", name, "-o", str(out_path))
            assert code == 0, name
            assert out_path.read_text() == (FIXTURE_DIR / f"{name}.mtc").read_text(), name

    def test_unknown_fixture(self, tmp_path, capsys):
        code, _, err = run(capsys, "fixture", "nope", "-o", str(tmp_path / "x.mtc"))
        assert code == 2

    def test_a_key_error_is_a_fault_not_an_input_error(self, monkeypatch):
        # no verb raises KeyError on bad input, so one from a fault
        # propagates instead of being printed as an input error
        monkeypatch.setattr(cli, "_load", lambda path: {}[path])
        with pytest.raises(KeyError):
            main(["validate", str(FIXTURE_DIR / "fibonacci.mtc")])


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
