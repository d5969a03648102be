"""Builders, the fixture catalog contract, and the golden files."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from reference import numeric_value
from modgal._numtheory import units_mod
from modgal.cyclotomic import CycNum, dot, root_of_unity
from modgal.families import (
    catalog,
    fibonacci,
    fixture,
    fixture_names,
    ising,
    sl2_level_adjoint,
)
from modgal.galois_action import (
    dims_ratio_check,
    galois_conjugate_data,
    is_transitive,
    orbit_partition,
    square_twist_consistency,
)
from modgal.modular_data import ModularData, deligne_product, dump_modular_data
from modgal.subcategories import pointed_part

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def golden(u_conj=False):
    if u_conj:
        return CycNum.from_terms(5, [(1, 0), (1, 2), (1, 3)])
    return CycNum.from_terms(5, [(1, 0), (1, 1), (1, 4)])


def direct_fibonacci(variant):
    """Fibonacci variant v written out: (conjugate dimension?, twist)."""
    conj, twist = ((False, 2), (False, 3), (True, 1), (True, 4))[variant]
    one = CycNum.one(5)
    s = ((one, golden(conj)), (golden(conj), -one))
    return ModularData(5, 2, ("1", "t"), s, (0, twist))


def direct_sl2(p, k):
    """sl2_level_adjoint(p, k) written out with zeta_p -> zeta_p^k in
    every term of s and t."""
    r = (p - 1) // 2
    s = tuple(
        tuple(
            CycNum.from_terms(p, ((1, k * i) for i in range(-h, h + 1)))
            for h in ((2 * m + 1) * (2 * l + 1) // 2 for l in range(r))
        )
        for m in range(r)
    )
    t = tuple(k * m * (m + 1) % p for m in range(r))
    return ModularData(p, r, tuple(f"V{2*m}" for m in range(r)), s, t)


class TestGaloisVariants:
    """The Fibonacci and sl2 variants, built as conjugates of one datum,
    are the data written out per variant; ising(0) conjugated by k is
    the variant with twist zeta_16^k only for k = +-1 (mod 8)."""

    @pytest.mark.parametrize("variant", range(4))
    def test_fibonacci_variant_is_written_out(self, variant):
        assert dump_modular_data(fibonacci(variant)) == dump_modular_data(direct_fibonacci(variant))

    @pytest.mark.parametrize("p", (5, 7, 11, 13, 19, 23))
    def test_sl2_variants_are_written_out(self, p):
        for k in units_mod(p):
            assert dump_modular_data(sl2_level_adjoint(p, k)) == dump_modular_data(direct_sl2(p, k)), k

    def test_non_unit_variant_refused(self):
        with pytest.raises(ValueError, match="^14 is not a unit modulo 7$"):
            sl2_level_adjoint(7, 14)

    def test_ising_conjugates(self):
        base = ising(0)
        for k in units_mod(16):
            conj = dump_modular_data(galois_conjugate_data(base, k))
            assert (conj == dump_modular_data(ising((k - 1) // 2))) == (k % 8 in (1, 7)), k


class TestFibonacci:
    def test_dims(self):
        data = fibonacci(0)
        assert data.dims == (CycNum.one(5), golden())

    def test_transitive(self):
        assert orbit_partition(fibonacci(0)).count == 1

    def test_all_variants_consistent(self):
        for v in range(4):
            data = fibonacci(v)
            assert data.validate().ok
            assert square_twist_consistency(data).ok
            assert dims_ratio_check(data).ok

    def test_product_reproduces_printed_matrix(self):
        prod = deligne_product(fibonacci(0), fibonacci(0))
        printed = fixture("fib_x_fib")
        # printed ordering pairs the two dimension-u columns last
        order = (0, 3, 1, 2)
        for i in range(4):
            for j in range(4):
                assert prod.s[order[i]][order[j]] == printed.s[i][j]


class TestIsing:
    def test_orbit_sizes(self):
        assert sorted(orbit_partition(ising(0)).sizes) == [1, 2]

    def test_pointed_rank(self):
        assert pointed_part(ising(0)).rank == 2

    def test_unique_sqrt2_object(self):
        data = ising(0)
        dual = data.fusion.dual
        hits = [
            x
            for x in range(3)
            if dual[x] == x and data.dims[x] * data.dims[x] == 2
        ]
        assert hits == [1]

    def test_all_variants(self):
        for v in range(8):
            data = ising(v)
            assert data.conductor == 16
            assert data.validate().ok and square_twist_consistency(data).ok

    def test_variant_range(self):
        with pytest.raises(ValueError):
            ising(8)


class TestSl2Adjoint:
    def test_rank_and_conductor(self):
        for p in (5, 7, 11, 13):
            data = sl2_level_adjoint(p)
            assert data.rank == (p - 1) // 2
            assert data.conductor == p

    def test_p5_matches_a_fibonacci_variant(self):
        data = sl2_level_adjoint(5)
        assert data.dims == (CycNum.one(5), golden())

    def test_transitive_with_trivial_pointed_part(self):
        for p in (5, 7, 11, 13):
            data = sl2_level_adjoint(p)
            assert is_transitive(data)
            assert pointed_part(data).rank == 1

    def test_galois_variant(self):
        base = sl2_level_adjoint(7)
        twisted = sl2_level_adjoint(7, galois_variant=3)
        assert twisted.validate().ok
        assert twisted.s[0][1] == base.s[0][1].galois_apply(3)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sl2_level_adjoint(4)
        with pytest.raises(ValueError):
            sl2_level_adjoint(3)


def _modular_relation_holds(data, t=None) -> bool:
    """(st)^3 = p+ s^2 with p+ = sum_a d_a^2 theta_a, in ``CycNum``, for
    the twist exponents t (the datum's own by default)."""
    n, r, s = data.conductor, data.rank, data.s
    theta = [root_of_unity(n, e) for e in (t or data.t_exponents)]

    def mul(a, b):
        return [[dot(a[x], [b[z][y] for z in range(r)]) for y in range(r)] for x in range(r)]

    st = [[s[x][y] * theta[y] for y in range(r)] for x in range(r)]
    p_plus = dot(data.dims, [d * th for d, th in zip(data.dims, theta)])
    cube, s2 = mul(mul(st, st), st), mul(s, s)
    return all(cube[x][y] == p_plus * s2[x][y] for x in range(r) for y in range(r))


class TestPaperFixtures:
    def test_orbits(self):
        assert orbit_partition(fixture("so5_3half_ad")).orbits == (
            (0, 1, 2),
            (3, 4, 5),
        )
        assert orbit_partition(fixture("sl2_12_A0")).orbits == ((0, 1, 2), (3, 4))

    def test_sl2_12_not_self_dual(self):
        data = fixture("sl2_12_A0")
        assert data.fusion.dual == (0, 1, 2, 4, 3)
        # the lower-right entries are a complex pair
        c = data.s[3][3]
        assert c.conjugate() != c

    def test_fib_conj_not_pseudounitary(self):
        data = fixture("fib_x_fib_conj")
        fp = data.fp_dims
        assert fp != data.dims
        assert any(d == -1 for d in data.dims)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            fixture("nope")

    def test_frozen_twists_solve_the_modular_relation(self):
        # so5_3half_ad: among every twist vector at N = 9 with t_0 = 0,
        # (st)^3 = p+ s^2 holds in floating point for exactly the frozen
        # one and its conjugate, and for both exactly
        data = fixture("so5_3half_ad")
        n, r = data.conductor, data.rank
        s = np.array([[numeric_value(v) for v in row] for row in data.s])
        s2 = s @ s
        found = []
        for t1 in range(n):
            ts = np.array([(0, t1) + rest for rest in itertools.product(range(n), repeat=r - 2)])
            theta = np.exp(2j * np.pi * ts / n)
            st = s[None] * theta[:, None, :]
            p_plus = (s[0] ** 2 * theta).sum(axis=1)
            gap = st @ st @ st - p_plus[:, None, None] * s2
            found += [tuple(t) for t in ts[np.abs(gap).max(axis=(1, 2)) < 1e-9].tolist()]
        assert found == [(0, 3, 6, 4, 1, 7), (0, 6, 3, 5, 8, 2)]
        assert data.t_exponents == found[0]
        for t in found:
            assert _modular_relation_holds(data, t), t
        assert _modular_relation_holds(fixture("sl2_12_A0"))


class TestCatalogContract:
    def test_every_entry_fully_valid(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            report = data.validate()
            assert report.ok, (name, report)
            assert square_twist_consistency(data).ok, name
            assert dims_ratio_check(data).ok, name
            data.fusion  # fusion coefficients exist and are integral

    def test_names_stable(self):
        assert "fibonacci" in fixture_names()
        assert "so5_3half_ad" in fixture_names()
        with pytest.raises(KeyError):
            fixture("bogus")


def _square_orbit_count(data):
    """|Orb(T (x) T)| for a transitive T."""
    assert is_transitive(data)
    return orbit_partition(deligne_product(data, data)).count


class TestTransitiveSquares:
    # the square of a transitive datum has as many orbits as its rank
    def test_fibonacci(self):
        assert _square_orbit_count(fibonacci(0)) == 2

    def test_sl2_7(self):
        assert _square_orbit_count(sl2_level_adjoint(7)) == 3

    def test_trivial(self, fixture_catalog):
        assert _square_orbit_count(fixture_catalog["trivial"]) == 1

    def test_coprime_product_transitive(self):
        prod = deligne_product(fibonacci(0), sl2_level_adjoint(7))
        assert is_transitive(prod)


class TestGoldenFiles:
    def test_builders_regenerate_files_bit_exactly(self):
        for name, data in catalog().items():
            path = FIXTURE_DIR / f"{name}.mtc"
            assert path.exists(), f"missing fixture file {name}"
            assert path.read_text() == dump_modular_data(data), name
