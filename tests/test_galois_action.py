"""Permutation matching, orbits, field degrees, and twist relations."""

import dataclasses

import pytest

from conftest import LADDER
from modgal.cyclotomic import unit_group_generators, units_mod
from modgal.families import fixture_names, sl2_level_adjoint
from modgal.galois_action import (
    dims_ratio_check,
    galois_conjugate_data,
    galois_permutation,
    orbit_partition,
    square_twist_consistency,
    verlinde_field_degree,
)
from modgal.modular_data import deligne_product
from modgal.pointed import FiniteAbelianGroup, build_pointed
from modgal.subcategories import all_subcategories, is_galois_closed


class TestGaloisPermutation:
    def test_identity_unit(self, fixture_catalog):
        for data in fixture_catalog.values():
            r = data.rank
            assert galois_permutation(data, 1 % data.conductor) == tuple(range(r))

    def test_pointed_action_is_scalar_multiplication(self):
        group = FiniteAbelianGroup((5,))
        data = build_pointed(group)
        # element h at index h; sigma_k sends h to k*h
        for k in units_mod(data.conductor):
            perm = galois_permutation(data, k)
            assert perm == tuple((k * h) % 5 for h in range(5))

    def test_fib_square_swaps_pairs(self, fixture_catalog):
        data = fixture_catalog["fib_x_fib"]
        assert galois_permutation(data, 2) == (1, 0, 3, 2)

    def test_non_unit_rejected(self, fixture_catalog):
        for act in (galois_permutation, galois_conjugate_data):
            with pytest.raises(ValueError, match="^5 is not a unit modulo 5$"):
                act(fixture_catalog["fibonacci"], 5)


class TestOrbits:
    def test_paper_partitions(self, fixture_catalog):
        assert orbit_partition(fixture_catalog["so5_3half_ad"]).orbits == (
            (0, 1, 2),
            (3, 4, 5),
        )
        assert orbit_partition(fixture_catalog["sl2_12_A0"]).orbits == (
            (0, 1, 2),
            (3, 4),
        )
        assert orbit_partition(fixture_catalog["fib_x_fib"]).orbits == ((0, 1), (2, 3))
        assert orbit_partition(fixture_catalog["fib_x_fib_conj"]).orbits == (
            (0, 1),
            (2, 3),
        )

    def test_rank_one(self, fixture_catalog):
        assert orbit_partition(fixture_catalog["trivial"]).orbits == ((0,),)

    def test_group_action_law_on_fixtures(self, fixture_catalog):
        # directly matched permutations compose as the units multiply,
        # and the partition keeps them on the generators
        for name in ["fibonacci", "ising", "so5_3half_ad", "sl2_12_A0", "pointed_z4"]:
            data = fixture_catalog[name]
            perms = _direct_perms(data)
            n = data.conductor
            for j, pj in perms.items():
                for k, pk in perms.items():
                    assert tuple(pj[i] for i in pk) == perms[(j * k) % n], (name, j, k)
            gens = unit_group_generators(n)
            assert orbit_partition(data).perms == {g: perms[g] for g in gens}, name

    def test_orbit_stabilizer_product(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            part = orbit_partition(data)
            perms = _direct_perms(data)
            for x in range(data.rank):
                stabilizer = [k for k, perm in perms.items() if perm[x] == x]
                assert len(part.orbit_of(x)) * len(stabilizer) == len(perms), (name, x)


class TestTransitivity:
    def test_fibonacci_transitive(self, fixture_catalog):
        assert orbit_partition(fixture_catalog["fibonacci"]).count == 1

    def test_ising_not(self, fixture_catalog):
        data = fixture_catalog["ising"]
        assert orbit_partition(data).count != 1
        assert sorted(orbit_partition(data).sizes) == [1, 2]

    def test_pointed_z2_not(self, fixture_catalog):
        assert orbit_partition(fixture_catalog["semion"]).count != 1

    def test_coprime_product_of_transitive(self, fixture_catalog):
        prod = deligne_product(
            fixture_catalog["fibonacci"], fixture_catalog["sl2_7_ad"]
        )
        assert orbit_partition(prod).count == 1


class TestFieldDegrees:
    def test_matches_orbit_sizes_everywhere(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            part = orbit_partition(data)
            for x in range(data.rank):
                assert verlinde_field_degree(data, x) == len(part.orbit_of(x)), name

    def test_fib_square_unit(self, fixture_catalog):
        assert verlinde_field_degree(fixture_catalog["fib_x_fib"], 0) == 2

    def test_pointed_degree_is_totient(self):
        from modgal.cyclotomic import euler_phi

        group = FiniteAbelianGroup((8,))
        data = build_pointed(group)
        for h in range(8):
            order = 8 // __import__("math").gcd(8, h) if h else 1
            assert verlinde_field_degree(data, h) == euler_phi(order)


class TestTwistRelations:
    def test_square_twist_all_fixtures(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            report = square_twist_consistency(data)
            assert report.ok, (name, report.failures)
            assert set(report.constants) == set(unit_group_generators(data.conductor)), name

    def test_dims_ratio_all_fixtures(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            assert dims_ratio_check(data).ok, name

    def test_pointed_z5_constants(self):
        data = build_pointed(FiniteAbelianGroup((5,)))
        report = square_twist_consistency(data)
        assert report.ok
        # sigma_hat_2 is h -> 2h and t_2h = 4 t_h, so c_2 = 4 t_h - t_2h = 0
        assert report.constants == {2: 0}


class TestConjugateData:
    def test_conjugate_is_valid_and_same_orbits(self, fixture_catalog):
        data = fixture_catalog["sl2_7_ad"]
        twisted = galois_conjugate_data(data, 3)
        assert twisted.validate().ok
        assert orbit_partition(twisted).count == orbit_partition(data).count

    def test_identity(self, fixture_catalog):
        data = fixture_catalog["fibonacci"]
        assert galois_conjugate_data(data, 1).s == data.s


def _direct_perms(data):
    """sigma_hat for every unit, each by direct column matching."""
    return {k: galois_permutation(data, k) for k in units_mod(data.conductor)}


class TestGeneratorChecks:
    """``dims_ratio_check`` and ``is_galois_closed`` run on generators;
    the references here run over every unit with directly matched
    permutations."""

    @pytest.mark.parametrize("conjugate", [False, True], ids=["as-is", "conjugate"])
    @pytest.mark.parametrize("name", fixture_names() + tuple(LADDER))
    def test_agree_with_every_unit(self, name, conjugate, fixture_catalog):
        data = fixture_catalog[name] if name in fixture_catalog else LADDER[name]()
        if conjugate:
            # conjugate by the first generator of the unit group
            gens = unit_group_generators(data.conductor)
            data = galois_conjugate_data(data, gens[0] if gens else 1 % data.conductor)
        perms = _direct_perms(data)
        dim_c, dims = data.global_dim, data.dims
        failing_units = sorted(
            k
            for k, perm in perms.items()
            if any(
                dims[perm[x]] * dims[perm[x]] * dim_c.galois_apply(k)
                != dim_c * (dims[x] * dims[x]).galois_apply(k)
                for x in range(data.rank)
            )
        )
        assert dims_ratio_check(data).ok == (not failing_units)
        for sub in all_subcategories(data):
            closed = all({p[x] for x in sub.members} == sub.members for p in perms.values())
            assert is_galois_closed(sub) == closed, sub.sorted_members

    def test_planted_generator_fault_is_reported(self):
        data = sl2_level_adjoint(7)
        part = orbit_partition(data)
        assert data._memo["orbit_partition"] is part
        g = unit_group_generators(data.conductor)[0]
        perm = list(part.perms[g])
        perm[0], perm[1] = perm[1], perm[0]  # dim(0)^2 != dim(1)^2
        data._memo["orbit_partition"] = dataclasses.replace(
            part, perms={**part.perms, g: tuple(perm)}
        )
        failures = dims_ratio_check(data).failures
        assert failures and all(f.startswith(f"dimension ratio fails at unit {g},") for f in failures)
