"""Group/form machinery, orbit counting, and the two computation routes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import full_table_nondegenerate
from modgal.cyclotomic import root_of_unity
from modgal.galois_action import galois_permutation, orbit_partition
from modgal.pointed import (
    FiniteAbelianGroup,
    QuadraticFormSpec,
    build_pointed,
    canonical_form,
    closed_form_counts,
    cyclic_subgroup_count,
    enumerate_quadratic_forms,
    generator_partition,
    gram_steps,
    pointed_orbit_partition,
)


def _chains(bound, base=1):
    """Every invariant-factor chain of multiples of ``base`` with product
    at most ``bound``."""
    yield ()
    for n in range(max(base, 2), bound + 1, base):
        for rest in _chains(bound // n, n):
            yield (n, *rest)


def _gram_matrices(group):
    """Every well-defined symmetric Gram matrix of the group with its
    diagonal entries in [0, M) and, when M is even, its off-diagonal
    entries in [0, M/2): adding M/2 to E_ij and E_ji adds
    M x_i x_j to x^T E x and M to 2 E_ij, so it changes neither q nor b,
    and every well-defined form is met once.  Without that bound (Z/2)^4
    would have 4^10 matrices, each form met 64 times."""
    M, steps = gram_steps(group)
    k = len(group.invariant_factors)
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    tops = [M if i == j or M % 2 else M // 2 for i, j in positions]
    ranges = [range(0, top, steps[i][j]) for (i, j), top in zip(positions, tops)]
    for values in itertools.product(*ranges):
        gram = [[0] * k for _ in range(k)]
        for (i, j), v in zip(positions, values):
            gram[i][j] = gram[j][i] = v
        yield tuple(map(tuple, gram))


@st.composite
def _drawn_forms(draw):
    """A group of order <= 64 and a well-defined Gram matrix on it, each
    entry a multiple of its step up to 3M, degenerate or not."""
    group = FiniteAbelianGroup(draw(st.sampled_from(list(_chains(64)))))
    M, steps = gram_steps(group)
    k = len(group.invariant_factors)
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = steps[i][j] * draw(
                st.integers(min_value=0, max_value=3 * M // steps[i][j]))
    return QuadraticFormSpec(group, tuple(map(tuple, gram)))


class TestGroup:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((6, 4))

    def test_factors_at_least_two(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1, 4))

    def test_trivial(self):
        g = FiniteAbelianGroup(())
        assert g.order == 1 and g.exponent == 1 and g.elements() == [()]


class TestForms:
    def test_gram_well_definedness(self):
        g = FiniteAbelianGroup((3, 6))
        M, steps = gram_steps(g)
        assert M == 12
        # a Gram entry of 2 on the order-3 generator would not be well
        # defined: steps force multiples of 4 there
        assert steps[0][0] == 4
        with pytest.raises(ValueError):
            QuadraticFormSpec(g, ((2, 0), (0, 1)))

    def test_symmetry_required(self):
        g = FiniteAbelianGroup((4, 4))
        with pytest.raises(ValueError):
            QuadraticFormSpec(g, ((1, 2), (3, 1)))

    def test_even_under_negation(self):
        g = FiniteAbelianGroup((5,))
        q = canonical_form(g)
        for x in range(5):
            assert q.q_exponent((x,)) == q.q_exponent(((-x) % 5,))

    def test_canonical_nondegenerate_everywhere(self):
        for facs in [(), (2,), (7,), (2, 2), (3, 6), (4, 8), (2, 2, 2), (12,)]:
            assert canonical_form(FiniteAbelianGroup(facs)).is_nondegenerate()

    def test_z3_has_two_forms(self):
        forms = list(enumerate_quadratic_forms(FiniteAbelianGroup((3,))))
        assert sorted(f.gram[0][0] for f in forms) == [1, 2]

    def test_gram_entries_beyond_int64(self):
        # q depends on the entries mod M only; both are 1 mod 3
        g = FiniteAbelianGroup((3,))
        for entry in (2**63 - 1, 10**23):
            form = QuadraticFormSpec(g, ((entry,),))
            assert form.value_vector() == tuple(map(form.q_exponent, g.elements())), entry

    def test_degenerate_detected(self):
        g = FiniteAbelianGroup((4,))
        q = QuadraticFormSpec(g, ((2,),))
        assert not q.is_nondegenerate()

    def test_nondegeneracy_matches_the_full_table(self):
        # every well-defined form of every group of order <= 16, the
        # degenerate ones included: the k generator columns decide as
        # the whole |A| x |A| table does
        degenerate = 0
        for facs in _chains(16):
            g = FiniteAbelianGroup(facs)
            for gram in _gram_matrices(g):
                form = QuadraticFormSpec(g, gram)
                expected = full_table_nondegenerate(form)
                assert form.is_nondegenerate() == expected, (facs, gram)
                degenerate += not expected
        assert degenerate > 0

    @settings(max_examples=300, deadline=None)
    @given(_drawn_forms())
    def test_nondegeneracy_matches_the_full_table_on_drawn_forms(self, form):
        assert form.is_nondegenerate() == full_table_nondegenerate(form), (
            form.group.invariant_factors, form.gram)


class TestBuild:
    def test_semion(self):
        g = FiniteAbelianGroup((2,))
        data = build_pointed(g, QuadraticFormSpec(g, ((1,),)))
        assert data.conductor == 4
        assert data.t_exponents == (0, 1)
        assert data.s[0] == (1, 1) and data.s[1][1] == -1
        assert data.validate().ok

    def test_trivial_group(self):
        data = build_pointed(FiniteAbelianGroup(()))
        assert data.rank == 1 and data.validate().ok

    def test_degenerate_rejected(self):
        g = FiniteAbelianGroup((4,))
        with pytest.raises(ValueError):
            build_pointed(g, QuadraticFormSpec(g, ((2,),)))

    def test_entries_match_the_per_entry_route(self):
        # every group of order <= 16: each s_{g,h} and t_g, moved to the
        # modulus M, is the root of unity of the form's tables, with
        # b(g, h) = zeta_M^(G[g] . h)
        for facs in _chains(16):
            g = FiniteAbelianGroup(facs)
            elements = g.elements()
            for form in enumerate_quadratic_forms(g, max_forms=8):
                data = build_pointed(g, form)
                gmat, tvec = form._tables
                M = form.modulus
                for x in range(g.order):
                    assert data.twist(x).embed(M) == root_of_unity(M, int(tvec[x]))
                    row = gmat[x].tolist()
                    for y, h in enumerate(elements):
                        exponent = sum(e * hj for e, hj in zip(row, h))
                        assert data.s[x][y].embed(M) == root_of_unity(M, exponent), (
                            facs, form.gram, x, y)

    def test_bicharacter_is_the_polarisation_of_q(self):
        # every yielded form of every group of order <= 32:
        # G[g] . h = q(g + h) - q(g) - q(h) (mod M), with q read
        # through q_exponent, as build_pointed's docstring argues
        forms = 0
        for facs in _chains(32):
            g = FiniteAbelianGroup(facs)
            elements = g.elements()
            index = {x: i for i, x in enumerate(elements)}
            plus = np.array([
                [index[tuple((a + b) % n for a, b, n in zip(x, y, facs))] for y in elements]
                for x in elements
            ])
            coords = np.array(elements, dtype=np.int64)
            for form in enumerate_quadratic_forms(g):
                M = form.modulus
                gmat, _ = form._tables
                q = np.array([form.q_exponent(x) for x in elements])
                polar = (q[plus] - q[:, None] - q[None, :]) % M
                assert np.array_equal(gmat @ coords.T % M, polar), (facs, form.gram)
                forms += 1
        assert forms == 5605

    def test_all_fixL_groups_validate(self):
        for facs in [(3,), (4,), (2, 2), (5,), (6,), (2, 4)]:
            data = build_pointed(FiniteAbelianGroup(facs))
            assert data.validate().ok, facs

    def test_scalar_action(self):
        from modgal.cyclotomic import units_mod

        g = FiniteAbelianGroup((7,))
        data = build_pointed(g)
        for k in units_mod(data.conductor):
            assert galois_permutation(data, k) == tuple(
                (k * h) % 7 for h in range(7)
            )


class TestCounting:
    @pytest.mark.parametrize(
        "facs,count",
        [
            ((2, 30, 30), 280),
            ((2, 6, 150), 120),
            ((2, 10, 90), 168),
            ((2, 2, 450), 72),
            ((30, 60), 210),
            ((6, 300), 90),
            ((10, 180), 126),
            ((2, 900), 54),
            ((15, 120), 140),
            ((3, 600), 60),
            ((5, 360), 84),
            ((1800,), 36),
        ],
    )
    def test_rank_1800_table(self, facs, count):
        assert cyclic_subgroup_count(FiniteAbelianGroup(facs)) == count

    def test_trivial(self):
        assert cyclic_subgroup_count(FiniteAbelianGroup(())) == 1

    def test_cyclic_is_divisor_count(self):
        for n in [2, 6, 12, 60, 64]:
            assert cyclic_subgroup_count(FiniteAbelianGroup((n,))) == len(
                [d for d in range(1, n + 1) if n % d == 0]
            )

    def test_elementary_abelian_closed_form(self):
        for p, n in [(2, 2), (3, 2), (5, 2), (2, 3)]:
            g = FiniteAbelianGroup((p,) * n)
            assert cyclic_subgroup_count(g) == closed_form_counts(
                "elementary_abelian", p=p, n=n
            )

    def test_closed_form_guards(self):
        with pytest.raises(ValueError):
            closed_form_counts("product_cyclic", p=3, n=1)
        with pytest.raises(ValueError):
            closed_form_counts("elementary_abelian", p=4, n=1)
        with pytest.raises(ValueError):
            closed_form_counts("nope", p=5, n=1)
        assert closed_form_counts("cyclic_divisors", n=12) == 6
        assert closed_form_counts("product_cyclic", p=5, n=1) == 3
        assert closed_form_counts("product_elementary_abelian", p=5, n=2) == 13


class TestOrbitRoutes:
    def test_fast_matches_generic_small_groups(self):
        # every group of order <= 10, every enumerated form: the exponent
        # route and the generic cyclotomic route give the same partition
        chains = [
            (),
            (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4),
            (2, 2, 2), (9,), (3, 3), (10,),
        ]
        for facs in chains:
            g = FiniteAbelianGroup(facs)
            for form in enumerate_quadratic_forms(g, max_forms=8):
                fast = pointed_orbit_partition(g, form)
                generic = orbit_partition(build_pointed(g, form)).orbits
                assert fast == generic, (facs, form.gram)

    def test_z5_partition(self):
        g = FiniteAbelianGroup((5,))
        assert pointed_orbit_partition(g, canonical_form(g)) == ((0,), (1, 2, 3, 4))

    def test_form_of_another_group_refused(self):
        with pytest.raises(ValueError, match="different group"):
            pointed_orbit_partition(
                FiniteAbelianGroup((3,)), canonical_form(FiniteAbelianGroup((5,))))

    def test_generator_partition_against_counts(self):
        for facs in [(2, 30), (12,), (2, 2, 4), (9, 9)]:
            g = FiniteAbelianGroup(facs)
            assert len(generator_partition(g)) == cyclic_subgroup_count(g)
        # against the definition, on every group of order <= 64: h and h'
        # share a part iff their sets of multiples are equal
        for facs in _chains(64):
            g = FiniteAbelianGroup(facs)
            parts: dict[frozenset, list[int]] = {}
            for i, h in enumerate(g.elements()):
                multiples = frozenset(
                    tuple(m * x % n for x, n in zip(h, facs)) for m in range(g.exponent))
                parts.setdefault(multiples, []).append(i)
            assert generator_partition(g) == tuple(map(tuple, parts.values())), facs
