"""Pointed modular data from finite abelian groups with nondegenerate
quadratic forms, and orbit counting.

A form is specified by a symmetric integer Gram matrix E over the
invariant-factor generators: q(x) = zeta_M^(x^T E x) with modulus
M = 2 * exponent(A) when |A| is even and M = exponent(A) when odd.
The associated bicharacter is b(g, h) = zeta_M^(2 g^T E h), and the
built s-matrix is s_{g,h} = b(g,h) with twists t_g = q(g).

Well-definedness on A constrains the Gram entries to multiples of
per-entry step sizes (``gram_steps``), checked on construction.
Nondegeneracy means the radical {g : b(g, .) = 1} is trivial; it is
decided by ``is_nondegenerate``, which ``build_pointed`` and the
enumerator call.  b is a bicharacter, so
b(g, h) = prod_j b(g, e_j)^(h_j) over the generators e_j, and
b(g, .) = 1 iff b(g, e_j) = 1 for every j: the decision reads the |A| x k
table of b(g, e_j), and the |A| x |A| table b(g, h) = G[g] . h mod M is
built only for a form that is used.

One kernel, ``_form_tables``, computes the tables of a stack of Gram
matrices at once: G (the exponents of b(g, e_j)), T (those of q) and
the number of zero rows of G mod M, which decides nondegeneracy.  A
single form passes it a stack of one.  ``enumerate_quadratic_forms``
passes its candidates a chunk at a time, at most ``_CHUNK_INT64S``
int64 entries of G each (32 KiB), so that NumPy's per-call cost is paid
once per chunk instead of once per candidate; it still constructs, and
so validates, every candidate and hands each its slice of the chunk.

Orbit counting has two routes that the tests play against each other:

* ``cyclic_subgroup_count`` counts the cyclic subgroups, which number
  the Galois orbits, as a product over the primes p of the exponent of
  the counts of the Sylow p-subgroups, each read from how many
  elements p^j kills;
* ``pointed_orbit_partition`` computes the orbits directly from the
  bicharacter by exact column matching in exponent space (the
  s-entries are single roots of unity, and sigma_k multiplies their
  exponents by k).  The exponent 2 g^T E h of b(g, h) is symmetric in
  g and h, so column h is fixed by its exponents at the generators,
  row h of G mod M.  The columns are matched through these k-entry
  keys, without building the |A| x |A| table, which is fast enough to
  sweep all groups of order up to 64 against the count.

One partition serves every form of a group.  s_{g,h} = b(g, h) is a
root of unity and b is a bicharacter, so
sigma_k(s_{g,h}) = b(g, h)^k = b(g, kh): sigma_k sends column h to
column kh.  A nondegenerate form makes the columns distinct, so
sigma_hat_k(h) = kh, and the orbits are the generator sets of the
cyclic subgroups whatever the form.  ``generator_partition`` computes
them from the group alone, as the orbits of the units modulo the
exponent acting by scaling on the element table, through the same
``permutation_orbits`` that ``pointed_orbit_partition`` calls.  The
sweep of every group and form against that partition is therefore a
differential test of the form enumerator and of
``pointed_orbit_partition``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numtheory import permutation_orbits, trial_factor, unit_group_generators
from .cyclotomic import root_of_unity
from .modular_data import ModularData

__all__ = [
    "FiniteAbelianGroup",
    "QuadraticFormSpec",
    "build_pointed",
    "canonical_form",
    "cyclic_subgroup_count",
    "enumerate_quadratic_forms",
    "generator_partition",
    "gram_steps",
    "pointed_orbit_partition",
]

# Largest Gram-matrix candidate space ``enumerate_quadratic_forms``
# scans in full before it falls back to a sparser family.
MAX_CANDIDATES = 200_000

# int64 entries of G that ``_form_tables`` builds for one chunk of
# ``enumerate_quadratic_forms``: a chunk holds at most this many over |A| k
# candidates, and at least one.
_CHUNK_INT64S = 2**12

# Largest prime of the exponent that ``cyclic_subgroup_count`` counts
# over, so that factoring the exponent takes at most that many trial
# divisions.
MAX_COUNT_PRIME = 100_000


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group in invariant-factor form n_1 | n_2 | ... | n_k."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        facs = self.invariant_factors
        for n in facs:
            if n < 2:
                raise ValueError("invariant factors must be >= 2 (empty tuple = trivial)")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"not a divisibility chain: {a} does not divide {b}")

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(n) for n in self.invariant_factors)))

    @cached_property
    def _coords(self) -> np.ndarray:
        """The elements, in ``elements`` order, as the rows of a
        read-only |A| x k int64 array."""
        coords = np.array(self.elements(), dtype=np.int64)
        coords.flags.writeable = False
        return coords

    @cached_property
    def _radix(self) -> np.ndarray:
        """The mixed-radix place values of the invariant factors, so that
        x @ _radix is the index of the element x in ``elements`` order."""
        radix = np.ones(len(self.invariant_factors), dtype=np.int64)
        for i in range(len(radix) - 1, 0, -1):
            radix[i - 1] = radix[i] * self.invariant_factors[i]
        radix.flags.writeable = False
        return radix

    @cached_property
    def _steps(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The answer of ``gram_steps``."""
        facs = self.invariant_factors
        L = self.exponent
        M = 2 * L if self.order % 2 == 0 else L
        steps = []
        for i, ni in enumerate(facs):
            row = []
            for j, nj in enumerate(facs):
                if i == j:
                    c = math.gcd(M, ni * math.gcd(2, ni))
                else:
                    c = math.gcd(M, 2 * min(ni, nj))
                row.append(M // c)
            steps.append(tuple(row))
        return M, tuple(steps)

    def __str__(self) -> str:
        if self.is_trivial:
            return "Z/1"
        return " + ".join(f"Z/{n}" for n in self.invariant_factors)


def gram_steps(group: FiniteAbelianGroup) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(modulus M, per-entry step sizes): entry (i, j) of a well-defined
    Gram matrix must be a multiple of step[i][j] modulo M.  Computed
    once per group."""
    return group._steps


def _form_tables(
    coords: np.ndarray, grams: np.ndarray, M: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, T, zero rows) of a (c, k, k) int64 stack of Gram matrices E,
    their entries already reduced mod M, over the elements ``coords``
    (|A| x k): G[i, g] = 2 g^T E_i, left unreduced, of shape (c, |A|, k);
    T[i, g] = g^T E_i g mod M, of shape (c, |A|); and, for each i, the
    number of rows of G[i] that vanish mod M.

    Exact in int64: a coordinate g_j lies below n_j <= M and an entry
    of E in [0, M), so an entry of g^T E lies in [0, k M^2) and one of
    G below 2 k M^2, and T is summed from g^T E reduced mod M, k terms
    below M^2.  2 k M^2 < 2^63 holds for every group of order below
    2^27 (M <= 2 |A| and k <= log2 |A|); a larger group's G would take
    1 GiB for a single form."""
    half = coords @ grams
    tvec = np.einsum("cgj,gj->cg", half % M, coords) % M
    gmat = 2 * half
    # the entries of G mod M are not negative, so a row vanishes iff its
    # sum does; einsum sums the short last axis about three times faster
    # than .any(axis=2) reduces it
    zero_rows = coords.shape[0] - np.count_nonzero(np.einsum("cgj->cg", gmat % M), axis=1)
    return gmat, tvec, zero_rows


@dataclass(frozen=True)
class QuadraticFormSpec:
    """q(x) = zeta_M^(x^T gram x) over the invariant-factor generators."""

    group: FiniteAbelianGroup
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gram = self.gram
        k = len(self.group.invariant_factors)
        if len(gram) != k or any(len(row) != k for row in gram):
            raise ValueError("gram matrix shape does not match the group")
        if list(zip(*gram)) != list(map(tuple, gram)):
            raise ValueError("gram matrix must be symmetric")
        _, steps = gram_steps(self.group)
        flat = itertools.chain.from_iterable
        if any(map(operator.mod, flat(gram), flat(steps))):
            # name the first entry, in row-major order, that is off its step
            for i, (row, step_row) in enumerate(zip(gram, steps)):
                for j, (entry, step) in enumerate(zip(row, step_row)):
                    if entry % step != 0:
                        raise ValueError(
                            f"gram entry ({i},{j}) = {entry} is not a multiple "
                            f"of {step}, so q is not well defined on the group"
                        )

    @property
    def modulus(self) -> int:
        M, _ = gram_steps(self.group)
        return M

    def q_exponent(self, x) -> int:
        M = self.modulus
        total = 0
        for i, xi in enumerate(x):
            for j, xj in enumerate(x):
                total += self.gram[i][j] * xi * xj
        return total % M

    @property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, T) over the elements g, rows in ``elements`` order:
        G[g, j] = 2 (E g)_j, the exponent of b(g, e_j) on zeta_M, left
        unreduced, and T[g] = g^T E g mod M, the exponent of q(g).
        b is a bicharacter, so b(g, h) = zeta_M^(G[g] . h mod M).

        Both come from ``_form_tables`` on a stack of one Gram matrix,
        unless ``enumerate_quadratic_forms`` handed the form its slice
        of a chunk (at most ``_CHUNK_INT64S`` entries of G) through
        ``_take_tables``.  Either way they are kept in the instance
        ``__dict__`` with the zero-row count that ``is_nondegenerate``
        reads, where ``functools.cached_property`` would take a lock on
        each first access (Python 3.11)."""
        memo = self.__dict__
        if "_tables_memo" not in memo:
            M = self.modulus
            k = len(self.gram)
            # q and b depend on the entries mod M only; reduced as Python
            # ints, they fit int64 whatever their size
            gram = np.array(
                [e % M for e in itertools.chain.from_iterable(self.gram)], dtype=np.int64
            ).reshape(1, k, k)
            gmat, tvec, zero_rows = _form_tables(self.group._coords, gram, M)
            memo["_tables_memo"] = (gmat[0], tvec[0])
            memo["_zero_rows"] = (M, int(zero_rows[0]))
        return memo["_tables_memo"]

    def _take_tables(self, M: int, gmat: np.ndarray, tvec: np.ndarray, zero_rows: int) -> None:
        """Keep G, T and the zero-row count of G mod M that
        ``_form_tables`` computed for this form's Gram matrix in a chunk
        at modulus M, as ``_tables`` would."""
        if M != self.modulus:
            raise ValueError(
                f"tables computed at modulus {M}, but the form's modulus is {self.modulus}")
        memo = self.__dict__
        memo["_tables_memo"] = (gmat, tvec)
        memo["_zero_rows"] = (M, zero_rows)

    def is_nondegenerate(self) -> bool:
        """Whether the radical {g : b(g, .) = 1} is the identity alone.
        b(g, h) = prod_j b(g, e_j)^(h_j), so b(g, .) = 1 iff
        b(g, e_j) = 1 for every generator e_j, that is, iff row g of G
        is zero mod M.  The count of zero rows comes with the tables."""
        M = self.modulus
        if "_zero_rows" not in self.__dict__:
            self._tables  # computes the count with the tables
        counted_at, zero_rows = self.__dict__["_zero_rows"]
        if counted_at != M:
            raise ValueError(
                f"zero rows counted at modulus {counted_at}, but the form's modulus is {M}")
        return zero_rows == 1

    def value_vector(self) -> tuple[int, ...]:
        """q on all elements as exponents mod M; identifies the form."""
        _, tvec = self._tables
        return tuple(tvec.tolist())


def canonical_form(group: FiniteAbelianGroup) -> QuadraticFormSpec:
    """The diagonal form whose Gram entries are the per-entry step
    sizes; the smallest well-defined diagonal, and nondegenerate for
    every group (each b(e_j, e_j) has order exactly n_j)."""
    _, steps = gram_steps(group)
    k = len(group.invariant_factors)
    gram = tuple(
        tuple(steps[i][i] if i == j else 0 for j in range(k)) for i in range(k)
    )
    form = QuadraticFormSpec(group, gram)
    assert form.is_nondegenerate()
    return form


def enumerate_quadratic_forms(group: FiniteAbelianGroup, max_forms: int | None = None):
    """Nondegenerate forms on the group, deduplicated by value vector.

    All well-defined Gram matrices are scanned when there are at most
    MAX_CANDIDATES of them; otherwise the tridiagonal family (free
    diagonal, superdiagonal off-entries only) when it has at most that
    many, and otherwise the diagonal family.  ``max_forms`` caps the
    yield.

    The candidates are checked a chunk at a time: one ``_form_tables``
    call per chunk, then, for each candidate, the form is constructed
    (and so validated), handed its slice, and asked
    ``is_nondegenerate``.  ``max_forms`` is tested before each
    candidate is constructed.
    """
    M, steps = gram_steps(group)
    k = len(group.invariant_factors)
    if k == 0:
        if max_forms != 0:
            yield QuadraticFormSpec(group, ())
        return

    for positions in (
        [(i, j) for i in range(k) for j in range(i, k)],
        [(i, i) for i in range(k)] + [(i, i + 1) for i in range(k - 1)],
        [(i, i) for i in range(k)],
    ):
        rngs = [range(0, M, steps[i][j]) for i, j in positions]
        if math.prod(map(len, rngs)) <= MAX_CANDIDATES:
            break

    # slots[i][j] indexes entry (i, j) in the values of a candidate, and
    # an entry off the family's positions indexes the trailing 0
    index = {pos: n for n, pos in enumerate(positions)}
    zero = len(positions)
    slots = [[index.get((min(i, j), max(i, j)), zero) for j in range(k)] for i in range(k)]
    flat_slots = list(itertools.chain.from_iterable(slots))
    coords = group._coords
    chunk = max(1, _CHUNK_INT64S // (group.order * k))
    candidates = itertools.product(*rngs, (0,))
    seen: set[tuple[int, ...]] = set()
    for block in iter(lambda: list(itertools.islice(candidates, chunk)), []):
        # every value lies in [0, M): each range runs from 0 below M
        grams = np.array(block, dtype=np.int64)[:, flat_slots].reshape(-1, k, k)
        gmats, tvecs, zero_rows = _form_tables(coords, grams, M)
        for values, gmat, tvec, zeros in zip(block, gmats, tvecs, zero_rows.tolist()):
            if max_forms is not None and len(seen) >= max_forms:
                return
            # symmetric, and each entry a multiple of its step, by construction
            gram = tuple([tuple([values[n] for n in row]) for row in slots])
            form = QuadraticFormSpec(group, gram)
            if zeros == 1:
                # a nondegenerate form may be yielded: it owns its tables
                # rather than views that keep the whole chunk alive
                gmat, tvec = gmat.copy(), tvec.copy()
            form._take_tables(M, gmat, tvec, zeros)
            if not form.is_nondegenerate():
                continue
            key = form.value_vector()
            if key in seen:
                continue
            seen.add(key)
            yield form


# -- building modular data ----------------------------------------------------


def build_pointed(group: FiniteAbelianGroup, form: QuadraticFormSpec | None = None) -> ModularData:
    """Rank-|A| modular data with s_{g,h} = b(g,h), t_g = q(g).

    The conductor is the lcm of the twist orders, M / c with
    c = gcd(M, q(g) over g): for divisors a, b of M,
    lcm(M/a, M/b) = M/gcd(a, b).  An exponent e of zeta_M is e / c on
    zeta_(M/c), and that division is exact for s as well as t:
    bmat[g, h] = G[g] . h = 2 g^T E h = q(g + h) - q(g) - q(h) (mod M), where
    q(g + h) is the twist of the element g + h because q is well
    defined on A, and c divides M and every twist.

    The entries are taken from one table of the M / c roots of unity,
    so s holds at most M / c distinct objects.  Construction checks each
    once, and ``ModularData._num`` converts each once to the int64
    numerator array that the residue view of the datum shares
    read-only."""
    form = form or canonical_form(group)
    if form.group != group:
        raise ValueError("form was built for a different group")
    if not form.is_nondegenerate():
        raise ValueError("the quadratic form is degenerate")
    M = form.modulus
    gmat, tvec = form._tables
    bmat = gmat @ group._coords.T % M
    c = math.gcd(M, *tvec.tolist())
    labels = tuple("(" + ",".join(map(str, x)) + ")" if x else "0" for x in group.elements())
    roots = [root_of_unity(M // c, e) for e in range(M // c)]
    s = tuple(tuple(map(roots.__getitem__, row)) for row in (bmat // c).tolist())
    return ModularData(M // c, group.order, labels, s, tuple((tvec // c).tolist()))


def pointed_orbit_partition(group: FiniteAbelianGroup, form: QuadraticFormSpec) -> tuple[tuple[int, ...], ...]:
    """Galois orbit partition of the pointed data, computed from the
    bicharacter by matching its columns through their keys.

    Column h of s is g -> b(g, h) = zeta_M^(G[g] . h).  Its key is its
    exponents at the generators, (b(e_j, h))_j, which is row h of G
    mod M.  E is symmetric, so G[g] . h = 2 g^T E h = G[h] . g: the key
    determines the whole column, and equal keys mean equal columns.
    sigma_u raises every entry to the u-th power, so it sends column h
    to the column whose key is u * key mod M.

    The keys are labelled densely.  b is well defined on A (it is the
    polarisation of q, see ``build_pointed``), so
    b(h, e_j)^(n_j) = b(h, n_j e_j) = 1, and entry j of a key is a
    multiple of M / n_j (n_j divides M).  Its quotient c_j lies in
    [0, n_j), and u * key mod M has quotients u * c_j mod n_j.  The
    label of a key is the index of (c_j)_j in the mixed radix of the
    invariant factors, below |A| whatever M^k is, so it is exact in
    int64.  A repeated label means two equal columns, and the form is
    refused as degenerate.  Otherwise the |A| labels fill [0, |A|), so
    every image key finds its column, and each sigma_u is a permutation.

    The route reads the form alone and never the action h -> uh on A,
    so it stays independent of ``generator_partition``, which the sweep
    plays it against."""
    if form.group != group:
        raise ValueError("form was built for a different group")
    gmat, _ = form._tables
    M = form.modulus
    facs = group.invariant_factors
    keys = gmat % M // (M // np.array(facs, dtype=np.int64))
    n = group.order
    column = np.full(n, -1, dtype=np.int64)
    column[keys @ group._radix] = np.arange(n)
    if (column < 0).any():
        raise ValueError("bicharacter columns are not distinct (degenerate form)")
    images = [
        column[(u * keys % facs) @ group._radix].tolist()
        for u in unit_group_generators(M)
    ]
    return permutation_orbits(n, images)


def generator_partition(group: FiniteAbelianGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of the element indices into generator sets of cyclic
    subgroups: h ~ h' iff <h> = <h'>.

    h and h' generate the same cyclic subgroup iff h' = kh for a unit k
    modulo the order of h.  Every unit modulo that order lifts to a unit
    modulo the exponent (units modulo the exponent reduce onto the units
    modulo each of its divisors), so the parts are the orbits of the
    generators of (Z/exponent)^x acting on A by scaling."""
    facs = group.invariant_factors
    images = [
        ((k * group._coords % facs) @ group._radix).tolist()
        for k in unit_group_generators(group.exponent)
    ]
    return permutation_orbits(group.order, images)


# -- counting ------------------------------------------------------------------


def cyclic_subgroup_count(group: FiniteAbelianGroup) -> int:
    """Number of cyclic subgroups, as a product over the primes p of the
    exponent.

    A is the direct sum of its Sylow subgroups A_p, and a subgroup is
    cyclic iff each of its Sylow parts is, so c(A) is the product of
    the c(A_p).  In A_p = sum_i Z/p^(v_p(n_i)), the elements that p^j
    kills number p^(s_j) with s_j = sum_i min(j, v_p(n_i)), so
    p^(s_j) - p^(s_(j-1)) of them have order exactly p^j, and each
    cyclic subgroup of that order has phi(p^j) = p^(j-1) (p - 1) of
    them as generators.  With e = v_p(exponent),

        c(A_p) = 1 + sum_(j=1..e) (p^(s_j) - p^(s_(j-1))) / (p^(j-1) (p - 1)),

    where each quotient is exact, as it counts subgroups.  s_j - s_(j-1)
    is the number of n_i that p^j divides.

    Every n_i divides the exponent, so only the exponent, the last
    invariant factor, is factored; a group is refused with
    ``ValueError`` when the exponent has a prime above
    ``MAX_COUNT_PRIME``, which bounds that trial division."""
    facs = group.invariant_factors
    factors, rest = trial_factor(group.exponent, MAX_COUNT_PRIME)
    if rest > 1:
        raise ValueError(
            f"invariant factor {group.exponent}: its factor {rest} has no prime factor up to "
            f"{MAX_COUNT_PRIME}, the largest prime counted"
        )
    total = 1
    for p, e in factors:
        count, killed = 1, 1
        for j in range(1, e + 1):
            grown = killed * p ** sum(n % p**j == 0 for n in facs)
            count += (grown - killed) // (p ** (j - 1) * (p - 1))
            killed = grown
        total *= count
    return total
