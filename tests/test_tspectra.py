"""Root sets, square-orbit counting, and the encoded table data."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgal.tspectra import (
    RootSet,
    TableRow,
    instantiate_rows,
    make_gamma,
    make_gamma_res,
    make_phi,
    make_phi_res,
    psi_e_matrix_check,
    rows_for_levels,
    square_galois_orbit_count,
    table_rows,
    verify_rows,
)


class TestRootSets:
    def test_phi1_gamma2(self):
        assert make_phi(1).elements == frozenset({(1, 0)})
        assert make_gamma(2).elements == frozenset({(2, 1)})

    def test_gamma4_split(self):
        left = make_gamma_res(2, 2, 1)
        right = make_gamma_res(2, 2, 3)
        assert left.union_disjoint(right).elements == make_gamma(4).elements
        assert len(left) == len(right) == 1

    def test_gamma_p_count(self):
        assert len(make_gamma(7)) == 6

    def test_gamma_2lambda_four_classes(self):
        for lam in (3, 4, 5):
            classes = [make_gamma_res(2, lam, r) for r in (1, 3, 5, 7)]
            whole = classes[0].union_disjoint(*classes[1:])
            assert whole.elements == make_gamma(2**lam).elements
            assert len({len(c) for c in classes}) == 1

    def test_gamma_odd_two_classes(self):
        for p, lam in [(3, 1), (5, 1), (7, 2)]:
            r = make_gamma_res(p, lam, 1)
            n = make_gamma_res(p, lam, 2 if p == 3 else 2)
            # second residue class: pick a non-residue
            from modgal.tspectra import _least_nonresidue

            n = make_gamma_res(p, lam, _least_nonresidue(p))
            assert r.union_disjoint(n).elements == make_gamma(p**lam).elements

    def test_phi_decomposes_by_divisor(self):
        phi12 = make_phi(12)
        union = RootSet(frozenset())
        for d in (1, 2, 3, 4, 6, 12):
            union = union.union_disjoint(make_gamma(d))
        assert union.elements == phi12.elements

    def test_phi_res(self):
        # squares mod 5 are {0, 1, 4}
        assert make_phi_res(5, 1).elements == RootSet.of(
            [(1, 0), (5, 1), (5, 4)]
        ).elements

    def test_disjoint_union_guard(self):
        with pytest.raises(ValueError):
            make_phi(4).union_disjoint(make_gamma(4))

    def test_residue_guard(self):
        with pytest.raises(ValueError):
            make_gamma_res(5, 1, 10)


class TestSquareOrbits:
    @pytest.mark.parametrize(
        "rootset,count",
        [
            (make_phi(5), 3),
            (make_phi(7), 3),
            (make_gamma(2), 1),
            (make_gamma(16), 4),
            (make_phi(1), 1),
            (make_gamma(9), 2),
            (make_phi(4), 4),
        ],
    )
    def test_counts(self, rootset, count):
        assert square_galois_orbit_count(rootset) == count

    def test_not_closed_raises(self):
        broken = RootSet.of([(5, 1)])
        with pytest.raises(ValueError):
            square_galois_orbit_count(broken)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            square_galois_orbit_count(RootSet(frozenset()))


def _product_set(a: RootSet, b: RootSet) -> RootSet:
    out = set()
    for n1, e1 in a.elements:
        for n2, e2 in b.elements:
            m = math.lcm(n1, n2)
            out.add((m, e1 * (m // n1) + e2 * (m // n2)))
    return RootSet.of(out)


@settings(max_examples=30, deadline=None)
@given(
    m1=st.sampled_from([2, 3, 4, 5, 8, 9]),
    m2=st.sampled_from([5, 7, 8, 9, 16, 27]),
)
def test_square_orbit_count_multiplicative(m1, m2):
    if math.gcd(m1, m2) != 1:
        return
    lhs = square_galois_orbit_count(_product_set(make_phi(m1), make_phi(m2)))
    rhs = square_galois_orbit_count(make_phi(m1)) * square_galois_orbit_count(
        make_phi(m2)
    )
    assert lhs == rhs


class TestTables:
    def test_default_scope_all_pass(self):
        rows = instantiate_rows()
        report = verify_rows(rows)
        assert report.ok, report.failures
        assert report.checked > 200

    def test_table1_small_prime(self):
        rows = table_rows(1, p=5)
        by_label = {r.label: r for r in rows}
        row = by_label["R_1(1,chi_-1) p=5"]
        assert row.dim == 2 and len(row.spectrum) == 2 and row.gal == 1

    def test_table5_n3(self):
        rows = table_rows(5)
        n3 = next(r for r in rows if r.label.startswith("N_3"))
        assert n3.dim == 4 and n3.gal == 4 and n3.mf is True
        assert len(n3.spectrum) == 4

    def test_sixteen_dim3_level16(self):
        rows = [r for r in table_rows(6) if r.dim == 3]
        assert len(rows) == 16

    def test_table8_lambda6_and_7(self):
        for lam in (6, 7):
            report = verify_rows(table_rows(8, lam=lam))
            assert report.ok, (lam, report.failures)

    def test_table8_needs_lam6(self):
        with pytest.raises(ValueError):
            table_rows(8, lam=5)

    @pytest.mark.parametrize("table,params", [(2, {"p": 3, "lam": 4}), (8, {"lam": 8})])
    def test_refuses_unverified_levels(self, table, params):
        with pytest.raises(ValueError):
            table_rows(table, **params)

    def test_every_failure_reported_on_its_row(self):
        # Phi_5 has 5 elements in 3 square orbits: gal and mf are both wrong
        bad = TableRow(0, "hand-built", 5, 3, make_phi(5), True, gal=2)
        good = table_rows(3)[0]
        report = verify_rows([good, bad])
        assert report.checked == 2 and not report.ok
        assert report.results[0].ok and report.results[1].row is bad
        assert report.results[1].failures == (
            "square orbit count 3, table says 2",
            "multiplicity-free but |spectrum| = 5 != dim",
        )
        assert len(report.failures) == 2

    def test_level_filter(self):
        rows = rows_for_levels(16)
        assert {r.level for r in rows} == {2, 4, 8, 16}
        rows = rows_for_levels(9)
        assert {r.level for r in rows} == {3, 9}

    def test_bounded_rows_checked_as_inequalities(self):
        rows = [r for r in table_rows(2, p=5, lam=3) if r.gal_min is not None]
        assert rows
        report = verify_rows(rows)
        assert report.ok


class TestPsiMatrix:
    @pytest.mark.parametrize("k,scalar", [(0, 0), (1, 2), (2, 0), (3, 2)])
    def test_square_is_fourth_root_scalar(self, k, scalar):
        report = psi_e_matrix_check(k)
        assert report.ok
        assert report.symmetric
        assert report.scalar_exponent == scalar

    def test_k_range(self):
        with pytest.raises(ValueError):
            psi_e_matrix_check(4)
