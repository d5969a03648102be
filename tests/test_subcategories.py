"""Lattice enumeration, centralizers, and the structural theorems."""

import pytest

from conftest import DIFFERENTIAL, planted_centralizing, planted_perms
from modgal.families import fixture, ising
from modgal.galois_action import orbit_partition
from modgal.modular_data import InvalidModularData, deligne_product
from modgal.pointed import FiniteAbelianGroup, build_pointed
from modgal.subcategories import (
    FusionSubcategory,
    _relations,
    adjoint_part,
    all_subcategories,
    centralizer,
    check_orbit_lower_bound,
    check_theorem_galois_closure,
    counting2_degree_check,
    generated_subcategory,
    is_galois_closed,
    is_integral,
    orbitwise_pseudoinvertible,
    pointed_part,
    pseudoinvertibles,
    two_orbit_diagnosis,
)


def members(sub):
    return sub.sorted_members


# -- the fixpoint enumeration, kept as the differential reference ------------


def _reference_generated(data, seed) -> frozenset[int]:
    """Closure of seed and the unit under duals and fusion support, by
    a frontier fixpoint over pairs."""
    table = data.fusion
    members = set(seed) | {0}
    members |= {table.dual[x] for x in members}
    frontier = list(members)
    while frontier:
        fresh = set()
        for x in members:
            for y in frontier:
                for z, n in enumerate(table.coeffs[x][y]):
                    if n and z not in members:
                        fresh.add(z)
        fresh |= {table.dual[z] for z in fresh}
        members |= fresh
        frontier = list(fresh)
    return frozenset(members)


def _reference_lattice(data) -> set[frozenset[int]]:
    """Every member set, closing the cyclic subcategories under the
    fixpoint join until no new one appears."""
    cyclic = {_reference_generated(data, {x}) for x in range(data.rank)}
    closed = cyclic | {frozenset({0})}
    frontier = set(closed)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in cyclic:
                if not b <= a:
                    join = _reference_generated(data, a | b)
                    if join not in closed:
                        fresh.add(join)
        closed |= fresh
        frontier = fresh
    return closed


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_lattice_matches_the_fixpoint(name):
    data = DIFFERENTIAL[name]()
    subs = all_subcategories(data)
    assert {s.members for s in subs} == _reference_lattice(data)
    assert len(subs) == len({s.members for s in subs})
    for x in range(data.rank):
        assert generated_subcategory(data, {x}).members == _reference_generated(data, {x})


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_centralizer_matches_its_definition(name):
    data = DIFFERENTIAL[name]()
    s, dims = data.s, data.dims
    for sub in all_subcategories(data):
        want = {
            x for x in range(data.rank)
            if all(s[x][y] == dims[x] * dims[y] for y in sub.members)
        }
        assert centralizer(sub).members == want, sub.sorted_members


def _subgroup_count(p, n):
    """Subgroups of (Z/p)^n: the sum over k of the Gaussian binomials
    [n choose k]_p."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


@pytest.mark.parametrize("p,n,count", [(2, 6, 2825), (3, 3, 28)])
def test_pointed_lattice_is_the_subgroup_lattice(p, n, count):
    # the fusion subcategories of pointed data are the subgroups
    assert _subgroup_count(p, n) == count
    data = build_pointed(FiniteAbelianGroup((p,) * n))
    assert len(all_subcategories(data)) == count


class TestGeneratedSubcategory:
    def test_empty_seed(self, fixture_catalog):
        data = fixture_catalog["ising"]
        assert members(generated_subcategory(data, set())) == (0,)

    def test_full_seed(self, fixture_catalog):
        data = fixture_catalog["ising"]
        assert members(generated_subcategory(data, {0, 1, 2})) == (0, 1, 2)

    def test_ising_fermion_generates_pointed(self, fixture_catalog):
        # index 2 squares to the unit
        data = fixture_catalog["ising"]
        assert members(generated_subcategory(data, {2})) == (0, 2)

    def test_closure_operator_laws(self, fixture_catalog):
        data = fixture_catalog["fib_x_fib"]
        for seed in [set(), {1}, {2}, {1, 3}]:
            closed = generated_subcategory(data, seed)
            assert seed <= closed.members  # extensive
            again = generated_subcategory(data, closed.members)
            assert again.members == closed.members  # idempotent
        small = generated_subcategory(data, {2}).members
        big = generated_subcategory(data, {2, 3}).members
        assert small <= big  # monotone


class TestLattice:
    @pytest.mark.parametrize(
        "name,count",
        [
            ("fibonacci", 2),
            ("fib_x_fib", 4),
            ("pointed_z5", 2),
            ("pointed_z3", 2),
            ("ising", 3),
            ("so5_3half_ad", 2),
            ("sl2_12_A0", 2),
            ("pointed_z4", 3),
        ],
    )
    def test_counts(self, name, count, fixture_catalog):
        assert len(all_subcategories(fixture_catalog[name])) == count


class TestCentralizer:
    def test_whole_and_trivial(self, fixture_catalog):
        for name in ["fibonacci", "ising", "so5_3half_ad"]:
            data = fixture_catalog[name]
            whole = FusionSubcategory(data, frozenset(range(data.rank)))
            triv = FusionSubcategory(data, frozenset({0}))
            assert centralizer(whole).members == {0}
            assert centralizer(triv).members == set(range(data.rank))

    def test_double_centralizer(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            for sub in all_subcategories(data):
                cc = centralizer(centralizer(sub))
                assert cc.members == sub.members, name

    def test_reverses_inclusion(self, fixture_catalog):
        data = fixture_catalog["fib_x_fib"]
        subs = all_subcategories(data)
        for a in subs:
            for b in subs:
                if a.members <= b.members:
                    assert (
                        centralizer(b).members <= centralizer(a).members
                    )

    def test_dimension_identity(self, fixture_catalog):
        # dim(D) * dim(C_C(D)) = dim(C) on modular fixtures
        for name, data in fixture_catalog.items():
            for sub in all_subcategories(data):
                cent = centralizer(sub)
                assert sub.dim() * cent.dim() == data.global_dim, name


class TestPointedAdjoint:
    def test_pointed_data_extremes(self, fixture_catalog):
        data = fixture_catalog["pointed_z5"]
        assert pointed_part(data).rank == data.rank
        assert members(adjoint_part(data)) == (0,)

    def test_fibonacci_trivial_pointed(self, fixture_catalog):
        assert members(pointed_part(fixture_catalog["fibonacci"])) == (0,)

    def test_ising_ranks(self, fixture_catalog):
        data = fixture_catalog["ising"]
        assert pointed_part(data).rank == 2
        assert centralizer(pointed_part(data)).members == adjoint_part(data).members

    def test_unit_orbit_inside_adjoint(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            orbit0 = set(orbit_partition(data).orbit_of(0))
            assert orbit0 <= adjoint_part(data).members, name


class TestPredicates:
    def test_trivial_subcategory(self, fixture_catalog):
        data = fixture_catalog["fibonacci"]
        triv = FusionSubcategory(data, frozenset({0}))
        assert is_integral(triv)
        # closure of the trivial subcategory needs the unit orbit to be a
        # fixed point, which holds for pointed data but not transitive data
        assert not is_galois_closed(triv)
        pointed = fixture_catalog["pointed_z4"]
        triv_p = FusionSubcategory(pointed, frozenset({0}))
        assert is_galois_closed(triv_p)

    def test_fib_factor_not_closed(self, fixture_catalog):
        data = fixture_catalog["fib_x_fib"]
        factor = generated_subcategory(data, {2})
        assert not is_galois_closed(factor)
        assert not is_integral(centralizer(factor))

    def test_ising_pointed_integral(self, fixture_catalog):
        data = fixture_catalog["ising"]
        assert is_integral(pointed_part(data))


class TestClosureTheorem:
    def test_all_fixtures(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            report = check_theorem_galois_closure(data)
            assert report.ok, (name, report.failures)

    def test_integral_fixture_all_closed(self, fixture_catalog):
        data = fixture_catalog["pointed_z4"]
        for sub in all_subcategories(data):
            assert is_galois_closed(sub)

    def test_large_products_too(self, fixture_catalog):
        prod = deligne_product(
            fixture_catalog["fibonacci"], fixture_catalog["pointed_z3"]
        )
        assert check_theorem_galois_closure(prod).ok


class TestOrbitBound:
    def test_pointed_z4_equality(self, fixture_catalog):
        report = check_orbit_lower_bound(fixture_catalog["pointed_z4"])
        assert report.bound == 3 and report.orbit_count == 3

    def test_fibonacci(self, fixture_catalog):
        report = check_orbit_lower_bound(fixture_catalog["fibonacci"])
        assert report.bound == 1 and report.orbit_count == 1

    def test_elementary_abelian_25(self):
        data = build_pointed(FiniteAbelianGroup((5, 5)))
        report = check_orbit_lower_bound(data)
        assert report.bound == 3
        assert report.orbit_count == 7


class TestPseudoinvertible:
    def test_pointed_everything(self, fixture_catalog):
        data = fixture_catalog["pointed_z5"]
        assert pseudoinvertibles(data) == frozenset(range(5))
        assert orbitwise_pseudoinvertible(data)

    def test_fibonacci(self, fixture_catalog):
        data = fixture_catalog["fibonacci"]
        assert pseudoinvertibles(data) == frozenset({0})
        assert orbitwise_pseudoinvertible(data)

    def test_so5_fails(self, fixture_catalog):
        data = fixture_catalog["so5_3half_ad"]
        assert pseudoinvertibles(data) == frozenset({0, 1, 2})
        assert not orbitwise_pseudoinvertible(data)


class TestCounting2:
    def test_whole_and_trivial(self, fixture_catalog):
        for name in ["fibonacci", "ising", "fib_x_fib", "so5_3half_ad"]:
            data = fixture_catalog[name]
            whole = FusionSubcategory(data, frozenset(range(data.rank)))
            triv = FusionSubcategory(data, frozenset({0}))
            assert counting2_degree_check(whole).ok, name
            report = counting2_degree_check(triv)
            assert report.ok and report.entries[0][1] == 1, name

    def test_fib_factor_degrees(self, fixture_catalog):
        data = fixture_catalog["fib_x_fib"]
        factor = generated_subcategory(data, {2})
        report = counting2_degree_check(factor)
        assert report.ok
        by_index = {e[0]: e for e in report.entries}
        # the nontrivial factor object: orbit size 2, meets the factor once
        x = max(factor.members)
        assert by_index[x][1] == 1 and by_index[x][2] == 2 and by_index[x][3] == 2

    def test_every_enumerated_subcategory(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            for sub in all_subcategories(data):
                assert counting2_degree_check(sub).ok, name


class TestPlantedFaults:
    """Each failure branch of the theorem checks, reached by planting a
    wrong sigma_hat or centralizing table in the datum's memo.  Ising
    has sigma_hat (0, 1, 2) and (2, 1, 0) on its generators and the
    subcategories (0,), (0, 2) and the whole."""

    def test_closed_subcategory_with_non_integral_centralizer(self):
        data = planted_perms(ising(0), (0, 1, 2))
        report = check_theorem_galois_closure(data)
        assert not report.ok and report.adjoint_closed
        assert report.failures == (
            "subcategory (0,): galois_closed=True, integral centralizer=False",
        )

    def test_adjoint_not_galois_closed(self):
        data = planted_perms(ising(0), (1, 0, 2))
        report = check_theorem_galois_closure(data)
        assert not report.ok and not report.adjoint_closed
        assert report.failures == (
            "subcategory (0, 2): galois_closed=False, integral centralizer=True",
            "adjoint subcategory is not closed under the Galois action",
        )

    def test_double_centralizer(self):
        # every object centralizes every object, so C(C(D)) is the whole
        data = fixture("fib_x_fib")
        planted_centralizing(data, (frozenset(range(4)),) * 4)
        assert check_theorem_galois_closure(data).failures == (
            "double centralizer fails for (0,)",
            "double centralizer fails for (0, 2)",
            "double centralizer fails for (0, 3)",
            "subcategory (0, 1, 2, 3): galois_closed=True, integral centralizer=False",
        )

    def test_adjoint_differs_from_the_centralizer_of_the_pointed_part(self):
        # psi planted as centralized by sigma: C({0, 2}) becomes the whole
        data = ising(0)
        _, centralizing = _relations(data)
        planted_centralizing(data, centralizing[:2] + (frozenset(range(3)),))
        message = "^adjoint subcategory differs from the centralizer of the pointed part$"
        with pytest.raises(InvalidModularData, match=message):
            adjoint_part(data)
        with pytest.raises(InvalidModularData, match=message):
            check_theorem_galois_closure(data)

    @pytest.mark.parametrize("name, perm, members, failures", [
        # orbits (0, 1) and (2,): O_0 meets C(C(D)) = D = (0, 2) in the
        # unit alone, so the degree is 2, which the orbit (2,) of size 1
        # cannot have
        ("ising", (1, 0, 2), {0, 2}, (
            "index 2: |orbit meet D| = 1, |orbit| = 1, [K_D meet L_X : Q] = 2",
        )),
        # orbits (0, 1, 3, 4, 5) and (2,): O_0 meets C(C(D)) = (0, 1, 2)
        # twice, so the degree is 5 // 2 = 2, which does not divide the
        # orbit size 5, though |orbit meet D| = 2 = 5 // 2
        ("so5_3half_ad", (1, 3, 2, 4, 5, 0), {0, 1}, (
            "index 0: |orbit meet D| = 2, |orbit| = 5, [K_D meet L_X : Q] = 2",
            "index 1: |orbit meet D| = 2, |orbit| = 5, [K_D meet L_X : Q] = 2",
        )),
        # Ising's own orbits (0, 2) and (1,), and a member set that is no
        # subcategory: C(C(D)) is the whole, so the degree is 1, but D
        # meets the orbit of 0 once
        ("ising", (2, 1, 0), {0, 1}, (
            "index 0: |orbit meet D| = 1, |orbit| = 2, [K_D meet L_X : Q] = 1",
        )),
    ])
    def test_counting2_degree(self, name, perm, members, failures):
        data = planted_perms(fixture(name), perm)
        report = counting2_degree_check(FusionSubcategory(data, frozenset(members)))
        assert not report.ok
        assert report.failures == failures


class TestTwoOrbitDiagnosis:
    @pytest.mark.parametrize(
        "name,clause",
        [
            ("ising", "ising_x_transitive"),
            ("fib_x_fib", "fib_x_fib"),
            ("fib_x_fib_conj", "fib_x_fib"),
            ("so5_3half_ad", "simple"),
            ("sl2_12_A0", "simple"),
            ("pointed_z5", "pointed_prime_x_transitive"),
            ("pointed_z3", "pointed_prime_x_transitive"),
        ],
    )
    def test_clauses(self, name, clause, fixture_catalog):
        assert two_orbit_diagnosis(fixture_catalog[name]).clause == clause

    def test_requires_two_orbits(self, fixture_catalog):
        with pytest.raises(ValueError):
            two_orbit_diagnosis(fixture_catalog["fibonacci"])
