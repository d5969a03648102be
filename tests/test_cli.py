"""CLI behavior: exit codes, determinism, and golden outputs."""

import json
from pathlib import Path

import pytest

from modgal.cli import main

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
        ],
        ids=["conductor-0", "flat-term", "four-element-term", "zero-denominator", "label-count"],
    )
    def test_malformed_file_names_the_file(self, tmp_path, capsys, path, value):
        doc = json.loads((FIXTURE_DIR / "fibonacci.mtc").read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.mtc"
        bad.write_text(json.dumps(doc))
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

    @pytest.mark.parametrize("level", ["0", "-8", "256", "81"])
    def test_refuses_unverified_levels(self, capsys, level):
        code, out, err = run(capsys, "tables", "--check", level)
        assert code == 2
        assert not out and level in err


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

    def test_fixture_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "ising.mtc"
        code, _, _ = run(capsys, "fixture", "ising", "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == (FIXTURE_DIR / "ising.mtc").read_text()

    def test_unknown_fixture(self, tmp_path, capsys):
        code, _, err = run(capsys, "fixture", "nope", "-o", str(tmp_path / "x.mtc"))
        assert code == 2
