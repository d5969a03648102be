"""Root sets, square-orbit counting, and the encoded table data."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgal.tspectra import (
    RootSet,
    _sigma_set,
    TableRow,
    make_gamma,
    make_gamma_res,
    make_phi,
    make_phi_res,
    psi_e_matrix_check,
    rows_for_levels,
    square_galois_orbit_count,
    verify_rows,
)


def _from_pairs(pairs) -> RootSet:
    """The roots zeta_n^e for (n, e) in ``pairs``."""
    pairs = list(pairs)
    m = math.lcm(*(n for n, _ in pairs))
    return RootSet.of(m, {e * (m // n) for n, e in pairs})


def _pairs(s: RootSet) -> list[tuple[int, int]]:
    """The roots of the set as sorted (order, exp) pairs in lowest terms."""
    out = []
    for e in s.exps:
        g = math.gcd(e, s.level)
        out.append((s.level // g, e // g))
    return sorted(out)


class TestRootSets:
    def test_phi1_gamma2(self):
        assert make_phi(1) == RootSet(1, frozenset({0}))
        assert make_gamma(2) == RootSet(2, frozenset({1}))

    def test_gamma4_split(self):
        left = make_gamma_res(2, 2, 1)
        right = make_gamma_res(2, 2, 3)
        assert left.union_disjoint(right) == make_gamma(4)
        assert len(left) == len(right) == 1

    def test_gamma_p_count(self):
        assert len(make_gamma(7)) == 6

    def test_gamma_2lambda_four_classes(self):
        for lam in (3, 4, 5):
            classes = [make_gamma_res(2, lam, r) for r in (1, 3, 5, 7)]
            whole = classes[0].union_disjoint(*classes[1:])
            assert whole == make_gamma(2**lam)
            assert len({len(c) for c in classes}) == 1

    def test_gamma_odd_two_classes(self):
        for p, lam in [(3, 1), (5, 1), (7, 2)]:
            r = make_gamma_res(p, lam, 1)
            n = make_gamma_res(p, lam, 2 if p == 3 else 2)
            # second residue class: pick a non-residue
            from modgal.tspectra import _least_nonresidue

            n = make_gamma_res(p, lam, _least_nonresidue(p))
            assert r.union_disjoint(n) == make_gamma(p**lam)

    def test_phi_decomposes_by_divisor(self):
        phi12 = make_phi(12)
        union = RootSet.of(1, ())
        for d in (1, 2, 3, 4, 6, 12):
            union = union.union_disjoint(make_gamma(d))
        assert union == phi12

    def test_phi_res(self):
        # squares mod 5 are {0, 1, 4}
        assert make_phi_res(5, 1) == _from_pairs([(1, 0), (5, 1), (5, 4)])

    def test_disjoint_union_guard(self):
        with pytest.raises(ValueError):
            make_phi(4).union_disjoint(make_gamma(4))

    def test_residue_guard(self):
        with pytest.raises(ValueError):
            make_gamma_res(5, 1, 10)

    def test_equal_sets_are_equal(self):
        # {zeta_4^0, zeta_4^2} is Phi_2, and the empty set sits at level 1
        assert RootSet.of(4, {0, 2}) == make_phi(2)
        assert RootSet.of(12, ()) == RootSet(1, frozenset())
        # at sigma = 1 every exponent r(x^2 + p t y^2) with p | x is a
        # multiple of p, so the least level is q / p
        for p, lam, r, t in [(3, 2, 1, 2), (5, 3, 2, 1), (7, 3, 3, 3)]:
            s = _sigma_set(p, lam, 1, r, t)
            assert s.level == p ** (lam - 1)
            assert all(e % p for e in s.exps)


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
        broken = RootSet.of(5, {1})
        with pytest.raises(ValueError):
            square_galois_orbit_count(broken)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            square_galois_orbit_count(RootSet.of(1, ()))


def _brute_force_count(s: RootSet) -> int:
    """Orbits under zeta -> zeta^(k^2) for every unit k modulo the level,
    each walked from one element; an image outside the set raises."""
    m = s.level
    units = [k for k in range(1, m + 1) if math.gcd(k, m) == 1]
    seen: set = set()
    count = 0
    for e in sorted(s.exps):
        if e in seen:
            continue
        orbit = {e * k * k % m for k in units}
        if not orbit <= s.exps:
            raise ValueError(f"not closed: {sorted(orbit - s.exps)}")
        seen |= orbit
        count += 1
    return count


def _reference_sets():
    for level in (2**7 * 3**3 * 5**3 * 7**3 * 11**3, 12167, 29791):
        for row in rows_for_levels(level):
            yield row.spectrum
    for m in range(1, 200):
        yield make_phi(m)
        yield make_gamma(m)


def test_orbit_count_matches_every_unit():
    checked = 0
    for s in _reference_sets():
        assert square_galois_orbit_count(s) == _brute_force_count(s), _pairs(s)[:4]
        checked += 1
    assert checked > 700


# sha256 over repr(sorted (order, exp) pairs) of each row spectrum in
# row order, computed from the per-root pair representation of commit
# dd8ceb7, before root sets were held as exponents at their least level
_SPECTRUM_DIGESTS = {
    2**7 * 3**3 * 5**3 * 7**3 * 11**3:
        "4463bd4a3623721a7fb85b7988bd5f04966bdf14947b486841b11cb106962d81",
    12167: "e9ab9d7c7c5bc628321ab96ecc011cb7d0cb7821b89a79cb418b3b4d9cf8a56a",
    29791: "e596edaba279b39bde722381074dc11a7d1595ad7cb5eac5b8a3742c0cefe486",
    44521: "a4d6e75b52e41920fc945645dba39bc7ad3f4c5e17ec5be2b723bac0258ca711",
}


@pytest.mark.parametrize("level", sorted(_SPECTRUM_DIGESTS))
def test_spectra_match_the_pair_representation(level):
    digest = hashlib.sha256()
    for row in rows_for_levels(level):
        digest.update(repr(_pairs(row.spectrum)).encode())
    assert digest.hexdigest() == _SPECTRUM_DIGESTS[level]


@pytest.mark.parametrize(
    "pairs,message",
    [
        ([(5, 1)], "(5, 1) -> (5, 4)"),
        ([(5, 1), (5, 4), (7, 1)], "(7, 1) -> (7, 2)"),
        ([(8, 1), (8, 3), (5, 1), (5, 4), (5, 2)], "(5, 2) -> (5, 3)"),
        ([(16, 3), (32, 1), (32, 9), (32, 17), (32, 25)], "(16, 3) -> (16, 11)"),
        # both roots escape; the least pair is named, not the least exponent at 10
        ([(10, 1), (5, 1)], "(5, 1) -> (5, 4)"),
    ],
)
def test_not_closed_names_the_first_escape(pairs, message):
    # the first generator of the unit group, then the first element in
    # sorted order, whose image leaves the set is the one named
    s = _from_pairs(pairs)
    with pytest.raises(ValueError, match="not closed"):
        _brute_force_count(s)
    with pytest.raises(ValueError) as exc:
        square_galois_orbit_count(s)
    assert str(exc.value) == f"set is not closed under the square action: {message}"


def _product_set(a: RootSet, b: RootSet) -> RootSet:
    m = math.lcm(a.level, b.level)
    ka, kb = m // a.level, m // b.level
    return RootSet.of(m, {e1 * ka + e2 * kb for e1 in a.exps for e2 in b.exps})


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
        rows = rows_for_levels(2**6 * 3**3 * 5**3 * 7**3 * 11**3)
        report = verify_rows(rows)
        assert report.ok, report.failures
        assert report.checked > 200

    def test_table1_small_prime(self):
        rows = [r for r in rows_for_levels(5) if r.table == 1]
        by_label = {r.label: r for r in rows}
        row = by_label["R_1(1,chi_-1) p=5"]
        assert row.dim == 2 and len(row.spectrum) == 2 and row.gal == 1

    def test_table5_n3(self):
        rows = [r for r in rows_for_levels(8) if r.table == 5]
        n3 = next(r for r in rows if r.label.startswith("N_3"))
        assert n3.dim == 4 and n3.gal == 4 and n3.mf is True
        assert len(n3.spectrum) == 4

    def test_sixteen_dim3_level16(self):
        rows = [r for r in rows_for_levels(16) if r.table == 6 and r.dim == 3]
        assert len(rows) == 16

    def test_table8_lambda6_and_7(self):
        for lam in (6, 7):
            rows = [r for r in rows_for_levels(2**lam) if r.level == 2**lam]
            assert {r.table for r in rows} == {8}
            report = verify_rows(rows)
            assert report.ok, (lam, report.failures)

    @pytest.mark.parametrize("level", [81, 256])
    def test_refuses_unverified_levels(self, level):
        with pytest.raises(ValueError, match="outside the verified t-spectra scope"):
            rows_for_levels(level)

    def test_every_failure_reported_on_its_row(self):
        # Phi_5 has 5 elements in 3 square orbits: gal and mf are both wrong
        bad = TableRow(0, "hand-built", 5, 3, make_phi(5), True, gal=2)
        good = rows_for_levels(2)[0]
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
        rows = [r for r in rows_for_levels(125) if r.level == 125 and r.gal_min is not None]
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
