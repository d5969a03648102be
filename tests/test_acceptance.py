"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its elapsed time.  All comparisons are exact; the
stated wall-clock budgets are asserted."""

import json
import time

import pytest

from conftest import PRODUCTS
from modgal.cli import main as cli_main
from modgal.families import (
    _pointed,
    fibonacci,
    fixture,
    ising,
    sl2_level_adjoint,
)
from modgal.galois_action import (
    dims_ratio_check,
    orbit_partition,
    square_twist_consistency,
    verlinde_field_degree,
)
from modgal.modular_data import deligne_product, save_modular_data
from modgal.pointed import (
    FiniteAbelianGroup,
    build_pointed,
    cyclic_subgroup_count,
    enumerate_quadratic_forms,
    generator_partition,
    pointed_orbit_partition,
)
from modgal.subcategories import (
    all_subcategories,
    centralizer,
    check_orbit_lower_bound,
    check_theorem_galois_closure,
)
from modgal.tspectra import rows_for_levels, verify_rows
from reference import closed_form_counts, psi_e_matrix_check


class _Clock:
    def __init__(self, budget, label):
        self.budget = budget
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.label} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.label}: {elapsed:.2f}s over budget {self.budget}s"
            )
        return False


RANK_1800_TABLE = [
    ("2,30,30", 280),
    ("2,6,150", 120),
    ("2,10,90", 168),
    ("2,2,450", 72),
    ("30,60", 210),
    ("6,300", 90),
    ("10,180", 126),
    ("2,900", 54),
    ("15,120", 140),
    ("3,600", 60),
    ("5,360", 84),
    ("1800", 36),
]


def test_criterion_1_pointed_counts(capsys):
    with _Clock(1.0, "criterion 1: twelve rank-1800 orbit counts"):
        for spec_text, want in RANK_1800_TABLE:
            code = cli_main(["pointed", spec_text, "--count-only"])
            out = capsys.readouterr().out
            assert code == 0
            assert f": {want} orbits" in out, (spec_text, want, out)


def test_criterion_2_orbit_partitions():
    expected = {
        "fib_x_fib": ((0, 1), (2, 3)),
        "fib_x_fib_conj": ((0, 1), (2, 3)),
        "so5_3half_ad": ((0, 1, 2), (3, 4, 5)),
        "sl2_12_A0": ((0, 1, 2), (3, 4)),
    }
    for name, want in expected.items():
        with _Clock(1.0, f"criterion 2: orbit partition of {name}"):
            assert orbit_partition(fixture(name)).orbits == want


def _abelian_groups_up_to(n_max):
    groups = [FiniteAbelianGroup(())]

    def chains(order):
        found = []

        def rec(rem, max_factor, acc):
            if rem == 1:
                found.append(tuple(reversed(acc)))
                return
            for f in range(2, max_factor + 1):
                if rem % f == 0 and (not acc or acc[-1] % f == 0):
                    rec(rem // f, f, acc + [f])

        rec(order, order, [])
        return found

    for n in range(2, n_max + 1):
        for chain in chains(n):
            groups.append(FiniteAbelianGroup(chain))
    return groups


def test_criterion_3_pointed_orbit_agreement():
    groups = _abelian_groups_up_to(64)
    assert len(groups) == 117
    forms_seen = 0
    with _Clock(120.0, "criterion 3: order<=64 sweep, direct orbits vs cyclic-subgroup count"):
        for group in groups:
            expected = generator_partition(group)
            assert len(expected) == cyclic_subgroup_count(group), group
            count = 0
            for form in enumerate_quadratic_forms(group, max_forms=256):
                assert pointed_orbit_partition(group, form) == expected, (
                    group.invariant_factors,
                    form.gram,
                )
                count += 1
            assert count >= 1, group
            forms_seen += count
    print(f"  ({forms_seen} forms over {len(groups)} groups)")


def test_criterion_4_galois_closure_theorem(fixture_catalog):
    with _Clock(120.0, "criterion 4: closure <=> integral centralizer on all fixtures"):
        for name, data in fixture_catalog.items():
            assert data.rank <= 50
            report = check_theorem_galois_closure(data)
            assert report.ok, (name, report.failures)
            assert report.adjoint_closed, name


def test_criterion_4_report_at_rank_48(tmp_path, capsys):
    # (Z/2)^4 x Ising: 681 fusion subcategories
    path = tmp_path / "rank48.mtc"
    save_modular_data(deligne_product(_pointed(2, 2, 2, 2), ising(0)), path)
    with _Clock(5.0, "criterion 4: report --json on (Z/2)^4 x Ising (rank 48)"):
        code = cli_main(["report", "--json", str(path)])
        out = capsys.readouterr().out
    assert code == 0, out
    assert json.loads(out)["subcategory_count"] == 681


def test_criterion_5_orbit_lower_bound(fixture_catalog):
    with _Clock(60.0, "criterion 5: pointed lower bound and cyclic product counts"):
        for name, data in fixture_catalog.items():
            report = check_orbit_lower_bound(data)
            assert report.ok, name
        for p, want in [(5, 3), (7, 4)]:
            pointed = build_pointed(FiniteAbelianGroup((p,)))
            prod = deligne_product(pointed, sl2_level_adjoint(p))
            count = orbit_partition(prod).count
            assert count == want == closed_form_counts("product_cyclic", p=p, n=1)
            bound_report = check_orbit_lower_bound(prod)
            assert bound_report.ok and count >= bound_report.bound


def test_criterion_6_product_formulas():
    with _Clock(60.0, "criterion 6: product orbit formulas and transitive squares"):
        for p, n in [(5, 1), (5, 2), (7, 1)]:
            pointed = build_pointed(FiniteAbelianGroup((p**n,)))
            prod = deligne_product(pointed, sl2_level_adjoint(p))
            assert orbit_partition(prod).count == closed_form_counts(
                "product_cyclic", p=p, n=n
            ), (p, n)
        # the square of a transitive datum has as many orbits as its rank
        for data in (fibonacci(0), sl2_level_adjoint(7), _pointed()):
            assert orbit_partition(deligne_product(data, data)).count == data.rank


def test_criterion_7_field_degrees(fixture_catalog):
    with _Clock(60.0, "criterion 7: orbit sizes equal character field degrees"):
        for name, data in fixture_catalog.items():
            part = orbit_partition(data)
            for x in range(data.rank):
                degree = verlinde_field_degree(data, x)
                assert degree == len(part.orbit_of(x)), (name, x)


def test_criterion_8_spectra_tables():
    with _Clock(60.0, "criterion 8: t-spectra tables 1-8"):
        rows = rows_for_levels(2**6 * 3**3 * 5**3 * 7**3 * 11**3)
        report = verify_rows(rows)
        assert report.ok, report.failures
        # sixteen 3-dimensional level-16 rows
        dim3 = [r for r in rows if r.table == 6 and r.dim == 3]
        assert len(dim3) == 16
        # every multiplicity-free row has |spectrum| = dim, every exact
        # orbit-count entry matches, bounds hold as inequalities
        from modgal.tspectra import square_galois_orbit_count

        for row in rows:
            if row.mf is True:
                assert len(row.spectrum) == row.dim, row.label
            if row.mf is False:
                assert len(row.spectrum) < row.dim, row.label
            got = square_galois_orbit_count(row.spectrum)
            if row.gal is not None:
                assert got == row.gal, row.label
            if row.gal_min is not None:
                assert got >= row.gal_min, row.label


def test_criterion_9_three_by_three_square():
    with _Clock(10.0, "criterion 9: exact square of the 3x3 matrix"):
        for k in range(4):
            report = psi_e_matrix_check(k)
            assert report.ok, k
            assert report.scalar_exponent == (2 * k) % 4


@pytest.mark.parametrize(
    "name,build",
    [
        ("Z/5 x sl2_11 (rank 25, N = 55)", PRODUCTS["z5_x_sl2_11"]),
        ("sl2_11 x sl2_13 (rank 30, N = 143)", PRODUCTS["sl2_11_x_sl2_13"]),
    ],
)
def test_criterion_10_every_rank_is_checked(tmp_path, capsys, name, build):
    path = tmp_path / "rung.mtc"
    save_modular_data(build(), path)
    with _Clock(5.0, f"criterion 10: validate {name} at every check"):
        code = cli_main(["validate", str(path)])
        out = capsys.readouterr().out
    assert code == 0, out
    assert out.startswith(f"{path}: valid (") and "skipped" not in out


def test_criterion_10_data_contract(fixture_catalog):
    with _Clock(120.0, "criterion 10: full data contract on every fixture"):
        for name, data in fixture_catalog.items():
            report = data.validate()
            assert report.ok, (name, report)
            data.fusion  # nonnegative integrality enforced on construction
            assert square_twist_consistency(data).ok, name
            assert dims_ratio_check(data).ok, name
            for sub in all_subcategories(data):
                cc = centralizer(centralizer(sub))
                assert cc.members == sub.members, (name, sub.sorted_members)
