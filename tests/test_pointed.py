"""Group/form machinery, orbit counting, and the two computation routes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    closed_form_counts,
    column_matching_partition,
    divisor_tuple_count,
    entry_numerators,
    full_table_nondegenerate,
    per_entry_pointed,
    reference_enumerate,
)
from modgal import pointed
from modgal.cyclotomic import root_of_unity
from modgal.galois_action import galois_permutation, orbit_partition
from modgal.modular_data import dump_modular_data
from modgal.pointed import (
    FiniteAbelianGroup,
    QuadraticFormSpec,
    build_pointed,
    canonical_form,
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


_GROUPS = st.sampled_from(list(_chains(64))).map(FiniteAbelianGroup)


@st.composite
def _drawn_forms(draw, group=None):
    """A well-defined Gram matrix on the group, by default one of order
    <= 64 drawn too, each entry a multiple of its step up to 3M,
    degenerate or not."""
    group = group or draw(_GROUPS)
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
        # the first bad entry in row-major order is named: (0,1) and
        # (1,0) of the second are odd where the step is 2, and (0,0) and
        # (1,1) of the third are 2 where the step is 4
        for facs, gram, named in (
            ((3, 6), ((2, 0), (0, 1)), r"\(0,0\) = 2 is not a multiple of 4"),
            ((3, 6), ((4, 1), (1, 1)), r"\(0,1\) = 1 is not a multiple of 2"),
            ((3, 3, 6), ((2, 0, 0), (0, 2, 0), (0, 0, 1)), r"\(0,0\) = 2 is not a multiple of 4"),
        ):
            with pytest.raises(ValueError, match=rf"^gram entry {named}, so q is not well "
                               r"defined on the group$"):
                QuadraticFormSpec(FiniteAbelianGroup(facs), gram)

    def test_symmetry_required(self):
        g = FiniteAbelianGroup((4, 4))
        with pytest.raises(ValueError, match="^gram matrix must be symmetric$"):
            QuadraticFormSpec(g, ((1, 2), (3, 1)))
        # a list of lists is compared entry by entry too
        assert QuadraticFormSpec(g, [[1, 2], [2, 1]]).modulus == 8
        for gram in (((1, 0),), ((1, 0), (0,)), ((1, 0, 0), (0, 1, 0)), ()):
            with pytest.raises(ValueError, match="^gram matrix shape does not match the group$"):
                QuadraticFormSpec(g, gram)

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
        # the cap holds from the first form on, for the trivial group too
        for facs, total in (((3,), 2), ((), 1)):
            for cap in (0, 1):
                capped = list(enumerate_quadratic_forms(FiniteAbelianGroup(facs), max_forms=cap))
                assert len(capped) == min(cap, total), (facs, cap)

    def test_gram_entries_beyond_int64(self):
        # q and b depend on the entries mod M only, negative or not: G
        # and T against 2 coords E mod M and q_exponent, in Python ints
        for facs, gram in (
            ((3,), ((2**63 - 1,),)),
            ((3,), ((10**23,),)),
            ((2, 4), ((2**64, -6), (-6, 2**63 + 5))),
            ((2, 4), ((-(2**70), 2**63 + 2), (2**63 + 2, -1))),
            ((3, 6), ((-4, 2**64 + 2), (2**64 + 2, 10**23 + 1))),
            ((3, 6), ((2**65 + 4, -(2**63)), (-(2**63), -7))),
        ):
            g = FiniteAbelianGroup(facs)
            form = QuadraticFormSpec(g, gram)
            M = form.modulus
            gmat, _ = form._tables
            k = len(facs)
            expected = [
                [2 * sum(x[i] * gram[i][j] for i in range(k)) % M for j in range(k)]
                for x in g.elements()
            ]
            assert (gmat % M).tolist() == expected, gram
            assert form.value_vector() == tuple(map(form.q_exponent, g.elements())), gram

    def test_degenerate_detected(self):
        g = FiniteAbelianGroup((4,))
        q = QuadraticFormSpec(g, ((2,),))
        assert not q.is_nondegenerate()

    def test_nondegeneracy_matches_the_full_table(self):
        # every well-defined form of every group of order <= 16, the
        # degenerate ones included, one at a time and as one stack: the
        # socle rows of the k generator columns decide as the whole
        # |A| x |A| table does, on the elementary abelian groups too,
        # where the socle is all of A
        degenerate = elementary = 0
        for facs in _chains(16):
            g = FiniteAbelianGroup(facs)
            M, _ = gram_steps(g)
            k = len(facs)
            grams = list(_gram_matrices(g))
            stack = np.array([[e % M for row in gram for e in row] for gram in grams],
                             dtype=np.int64).reshape(len(grams), k, k)
            counts = pointed._socle_zero_rows(g._socle, stack, M).tolist()
            for gram, count in zip(grams, counts):
                form = QuadraticFormSpec(g, gram)
                expected = full_table_nondegenerate(form)
                assert form.is_nondegenerate() == (count == 1) == expected, (facs, gram)
                degenerate += not expected
            elementary += len(g._socle) == g.order > 1
        assert degenerate > 0
        # Z/2, Z/3, Z/5, Z/7, Z/11, Z/13, (2,2), (3,3), (2,2,2), (2,2,2,2)
        assert elementary == 10

    @settings(max_examples=300, deadline=None)
    @given(_drawn_forms())
    def test_nondegeneracy_matches_the_full_table_on_drawn_forms(self, form):
        assert form.is_nondegenerate() == full_table_nondegenerate(form), (
            form.group.invariant_factors, form.gram)


@st.composite
def _drawn_stacks(draw):
    """A group of order <= 64 and one to six forms on it, drawn as
    ``_drawn_forms`` draws them."""
    group = draw(_GROUPS)
    return group, draw(st.lists(_drawn_forms(group), min_size=1, max_size=6))


class TestSocle:
    def test_socle_is_the_identity_and_the_elements_of_prime_order(self):
        # every group of order <= 64: the rows are distinct, the
        # identity first, and as a set they are {g : p g = 0 for some
        # prime p dividing |A|}, by brute force over the elements, with
        # the identity (the trivial group's order has no prime)
        primes = [p for p in range(2, 65) if all(p % d for d in range(2, p))]
        for facs in _chains(64):
            g = FiniteAbelianGroup(facs)
            rows = [tuple(row) for row in g._socle.tolist()]
            want = {(0,) * len(facs)} | {
                x for x in g.elements()
                if any(g.order % p == 0 and all(p * xj % n == 0 for xj, n in zip(x, facs))
                       for p in primes)
            }
            assert rows[0] == (0,) * len(facs) and len(set(rows)) == len(rows), facs
            assert set(rows) == want, facs
            assert not g._socle.flags.writeable


class TestChunkedTables:
    @settings(max_examples=200, deadline=None)
    @given(_drawn_stacks())
    def test_each_slice_is_the_form_own_tables(self, drawn):
        # a stack of Gram matrices reduced mod M: slice i of G and T is
        # what form i computes on its own, and its count of vanishing
        # socle rows decides nondegeneracy as the whole |A| x |A| table
        # does
        group, forms = drawn
        M = forms[0].modulus
        k = len(group.invariant_factors)
        grams = np.array([[[e % M for e in row] for row in f.gram] for f in forms],
                         dtype=np.int64).reshape(len(forms), k, k)
        gmats, tvecs = pointed._form_tables(group._coords, grams, M)
        zero_rows = pointed._socle_zero_rows(group._socle, grams, M)
        for form, gmat, tvec, zeros in zip(forms, gmats, tvecs, zero_rows.tolist()):
            own_gmat, own_tvec = form._tables
            assert np.array_equal(gmat, own_gmat) and np.array_equal(tvec, own_tvec), form.gram
            assert (zeros == 1) == full_table_nondegenerate(form), (
                group.invariant_factors, form.gram)

    def test_chunked_enumerator_matches_the_reference(self, monkeypatch):
        # every group of order <= 32: the same forms in the same order as
        # one candidate at a time, with the default chunk budget and with
        # budgets for chunks of one and of three candidates (a chunk is
        # sized by the socle rows, and the survivors' tables then come
        # one or a few at a time); with three, a max_forms stop can fall
        # inside a chunk, and a scan that ends before 256 forms ends on a
        # partial chunk
        default = pointed._CHUNK_INT64S
        yielded = 0
        for facs in _chains(32):
            g = FiniteAbelianGroup(facs)
            want = [f.gram for f in reference_enumerate(g)]
            width = len(g._socle) * max(1, len(facs))
            for budget, caps in ((default, (None, 1, 7, 256)), (width, (1, 7)),
                                 (3 * width, (1, 7, 256))):
                monkeypatch.setattr(pointed, "_CHUNK_INT64S", budget)
                for cap in caps:
                    got = [f.gram for f in enumerate_quadratic_forms(g, max_forms=cap)]
                    assert got == want[:cap], (facs, budget, cap)
                    yielded += len(got)
        # 5605 forms in all, 3281 under the cap 256, 413 under the caps 1
        # and 7 together
        assert yielded == 5605 + 2 * 3281 + 3 * 413

    def test_twists_exact_where_g_E_g_exceeds_int64(self):
        # Z/(5 2^20) has M = 5 2^21, and g^T E g nears 2^68 at its
        # largest elements with E = M - 1: T is summed from g^T E mod M,
        # so it stays exact; rows of the group's element table suffice.
        # Its socle, 0, n/2 and the multiples of n/5, is counted exactly
        # too, with E = M - 1 (a unit mod n) and with E = 5 and E = 2,
        # which n/5 and n/2 respectively reach in the radical
        n = 5 * 2**20
        M = 2 * n
        coords = np.arange(n - 50, n, dtype=np.int64).reshape(-1, 1)
        gram = np.array([[[M - 1]]], dtype=np.int64)
        gmat, tvec = pointed._form_tables(coords, gram, M)
        xs = coords[:, 0].tolist()
        assert tvec[0].tolist() == [x * x * (M - 1) % M for x in xs]
        assert gmat[0, :, 0].tolist() == [2 * x * (M - 1) for x in xs]
        socle = FiniteAbelianGroup((n,))._socle
        assert socle[:, 0].tolist() == [0, n // 2, n // 5, 2 * n // 5, 3 * n // 5, 4 * n // 5]
        grams = np.array([M - 1, 5, 2], dtype=np.int64).reshape(3, 1, 1)
        assert pointed._socle_zero_rows(socle, grams, M).tolist() == [1, 5, 2]

    def test_tables_at_another_modulus_refused(self):
        g = FiniteAbelianGroup((2, 4))
        form = canonical_form(g)
        gmat, tvec = form._tables
        for tables in (None, (gmat, tvec)):
            with pytest.raises(ValueError, match="^tables computed at modulus 16, but the "
                               "form's modulus is 8$"):
                QuadraticFormSpec(g, form.gram)._take_tables(16, 1, tables)
        fresh = QuadraticFormSpec(g, form.gram)
        fresh.__dict__["_zero_rows"] = (16, 1)
        with pytest.raises(ValueError, match="^zero rows counted at modulus 16, but the "
                           "form's modulus is 8$"):
            fresh.is_nondegenerate()


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

    def test_shared_roots_build_the_per_entry_datum(self):
        # every group of order <= 64, with its canonical form and the
        # first 4 enumerated forms: the datum built from one table of
        # roots has the fields of one root_of_unity call per entry, so it
        # dumps to the same bytes; with the canonical form, its residue
        # view holds the numerators read entry by entry
        builds = 0
        for facs in _chains(64):
            g = FiniteAbelianGroup(facs)
            canonical = canonical_form(g)
            for form in (canonical, *enumerate_quadratic_forms(g, max_forms=4)):
                data, want = build_pointed(g, form), per_entry_pointed(g, form)
                fields = [(d.conductor, d.rank, d.labels, d.s, d.t_exponents) for d in (data, want)]
                assert fields[0] == fields[1], (facs, form.gram)
                if form is canonical:
                    num = data._residues.num
                    assert num.dtype == np.int64
                    assert np.array_equal(num, np.array(entry_numerators(want))), facs
                builds += 1
        assert builds > 2 * 117

    @pytest.mark.parametrize("facs", [(4, 4), (2, 2, 2, 2), (8, 8), (2, 4, 8), (64,)])
    def test_shared_roots_write_the_per_entry_file(self, facs):
        # the groups that the benchmark's catalog builds in full, with
        # their canonical forms and the first 4 enumerated forms
        g = FiniteAbelianGroup(facs)
        for form in (canonical_form(g), *enumerate_quadratic_forms(g, max_forms=4)):
            assert dump_modular_data(build_pointed(g, form)) == dump_modular_data(
                per_entry_pointed(g, form)), form.gram

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

    def test_product_over_primes_matches_the_divisor_tuple_sum(self):
        # every chain of order <= 256: 516 groups
        chains = list(_chains(256))
        assert len(chains) == 516
        for facs in chains:
            g = FiniteAbelianGroup(facs)
            assert cyclic_subgroup_count(g) == divisor_tuple_count(g) == len(generator_partition(g)), facs

    @pytest.mark.parametrize("facs", [(7, 49, 1715), (9, 27, 108), (2, 4, 8, 16, 32), (3, 3, 9, 675)])
    def test_product_over_primes_on_several_prime_powers(self, facs):
        g = FiniteAbelianGroup(facs)
        assert cyclic_subgroup_count(g) == divisor_tuple_count(g)

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

    def test_keys_match_whole_columns(self):
        # the first 8 forms of every group of order <= 64: matching the
        # k-entry keys gives the partition that matching the |A|-entry
        # columns of the bicharacter table gives
        chains = list(_chains(64))
        assert len(chains) == 117
        forms = 0
        for facs in chains:
            g = FiniteAbelianGroup(facs)
            for form in enumerate_quadratic_forms(g, max_forms=8):
                assert pointed_orbit_partition(g, form) == column_matching_partition(g, form), (
                    facs, form.gram)
                forms += 1
        assert forms > 117

    @settings(max_examples=300, deadline=None)
    @given(_drawn_forms())
    def test_keys_match_whole_columns_on_drawn_forms(self, form):
        g = form.group
        if form.is_nondegenerate():
            assert pointed_orbit_partition(g, form) == column_matching_partition(g, form), (
                g.invariant_factors, form.gram)
            return
        for route in (pointed_orbit_partition, column_matching_partition):
            with pytest.raises(ValueError, match=r"^bicharacter columns are not distinct "
                               r"\(degenerate form\)$"):
                route(g, form)

    def test_degenerate_form_refused(self):
        g = FiniteAbelianGroup((2, 4))
        # b((0,2), .) = 1: 2 E (0,2) = (0, 8) is 0 mod 8
        form = QuadraticFormSpec(g, ((2, 0), (0, 2)))
        assert not form.is_nondegenerate()
        with pytest.raises(ValueError, match=r"^bicharacter columns are not distinct "
                           r"\(degenerate form\)$"):
            pointed_orbit_partition(g, form)

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
