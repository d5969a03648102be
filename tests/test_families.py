"""Builders, the fixture catalog contract, and the golden files."""

from pathlib import Path

import pytest

from modgal.cyclotomic import CycNum, root_of_unity
from modgal.families import (
    catalog,
    fibonacci,
    fixture,
    fixture_names,
    ising,
    sl2_level_adjoint,
    transitive_square_orbit_count,
)
from modgal.galois_action import (
    dims_ratio_check,
    is_transitive,
    orbit_partition,
    square_twist_consistency,
)
from modgal.modular_data import deligne_product, dump_modular_data
from modgal.subcategories import pointed_part

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def golden(u_conj=False):
    if u_conj:
        return CycNum.from_terms(5, [(1, 0), (1, 2), (1, 3)])
    return CycNum.from_terms(5, [(1, 0), (1, 1), (1, 4)])


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
        fp = data.fp_dims()
        assert fp != data.dims
        assert any(d == -1 for d in data.dims)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            fixture("nope")


class TestCatalogContract:
    def test_every_entry_fully_valid(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            report = data.validate()
            assert report.ok and not report.skipped, (name, report)
            assert square_twist_consistency(data).ok, name
            assert dims_ratio_check(data).ok, name
            data.fusion  # fusion coefficients exist and are integral

    def test_names_stable(self):
        assert "fibonacci" in fixture_names()
        assert "so5_3half_ad" in fixture_names()
        with pytest.raises(KeyError):
            fixture("bogus")


class TestTransitiveSquares:
    def test_fibonacci(self):
        assert transitive_square_orbit_count(fibonacci(0)) == 2

    def test_sl2_7(self):
        assert transitive_square_orbit_count(sl2_level_adjoint(7)) == 3

    def test_trivial(self, fixture_catalog):
        assert transitive_square_orbit_count(fixture_catalog["trivial"]) == 1

    def test_rejects_intransitive(self, fixture_catalog):
        with pytest.raises(ValueError):
            transitive_square_orbit_count(fixture_catalog["ising"])

    def test_coprime_product_transitive(self):
        prod = deligne_product(fibonacci(0), sl2_level_adjoint(7))
        assert is_transitive(prod)


class TestGoldenFiles:
    def test_builders_regenerate_files_bit_exactly(self):
        for name, data in catalog().items():
            path = FIXTURE_DIR / f"{name}.mtc"
            assert path.exists(), f"missing fixture file {name}"
            assert path.read_text() == dump_modular_data(data), name
