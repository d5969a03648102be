"""Pointed modular data from finite abelian groups with nondegenerate
quadratic forms, and orbit counting.

A form is specified by a symmetric integer Gram matrix E over the
invariant-factor generators: q(x) = zeta_M^(x^T E x) with modulus
M = 2 * exponent(A) when |A| is even and M = exponent(A) when odd.
The associated bicharacter is b(g, h) = zeta_M^(2 g^T E h), and the
built s-matrix is s_{g,h} = b(g,h) with twists t_g = q(g).

Well-definedness on A constrains the Gram entries to multiples of
per-entry step sizes (``gram_steps``), checked on construction.
Nondegeneracy means the radical R = {g : b(g, .) = 1} is trivial; it is
decided by ``is_nondegenerate``, which ``build_pointed`` and the
enumerator call.  b is a bicharacter, so
b(g, h) = prod_j b(g, e_j)^(h_j) over the generators e_j, and
b(g, .) = 1 iff b(g, e_j) = 1 for every j, that is, iff row g of the
|A| x k table G[g] = 2 g^T E vanishes mod M.  The |A| x |A| table
b(g, h) = G[g] . h mod M is built only for a form that is used.

The decision reads only the rows of G at the socle: the identity and
the elements of prime order (``FiniteAbelianGroup._socle``).  R is a
subgroup, since b(g + g', .) = b(g, .) b(g', .).  By Cauchy's theorem a
nontrivial finite group has an element of prime order, and an element
of R has its order in R, so R is trivial iff it holds no element of
prime order: iff the identity is the only socle row of G that vanishes
mod M.  An element g of prime order p has p g = 0, so p divides |A|
(Lagrange) and g lies in A[p] = {g : p g = 0}, whose coordinate j is a
multiple of n_j / p where p divides n_j and 0 where it does not.  The
socle is the union of these A[p]: sum_p (p^(r_p) - 1) + 1 rows, with r_p
the number of n_j that p divides, against |A|; 8 rows for
Z/2 + Z/4 + Z/8 (|A| = 64), 2 for Z/64, and all of A only where A is
elementary abelian.

Two kernels act on a stack of Gram matrices at once:
``_socle_zero_rows`` counts the vanishing socle rows of each, and
``_form_tables`` builds each one's G and T (the exponents of q).  A
single form passes a stack of one, and builds its tables only when
they are asked for.  ``enumerate_quadratic_forms`` counts its
candidates a chunk at a time and builds the tables of the survivors,
the nondegenerate ones, alone, so that NumPy's per-call cost is paid
once per chunk instead of once per candidate; every array either
kernel builds holds at most ``_CHUNK_INT64S`` int64 entries (32 KiB),
or one form's.  It still constructs, and so validates, every candidate
and hands each its count, and each survivor its tables.

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

from ._numtheory import factorize, permutation_orbits, trial_factor, unit_group_generators
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

# int64 entries of the largest array that ``_socle_zero_rows`` or
# ``_form_tables`` builds for ``enumerate_quadratic_forms``: a chunk holds
# at most this many over (socle rows) k candidates, and a batch of its
# survivors at most this many over |A| k, and each at least one.
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
    def _factor_array(self) -> np.ndarray:
        """The invariant factors as a read-only int64 array."""
        facs = np.array(self.invariant_factors, dtype=np.int64)
        facs.flags.writeable = False
        return facs

    @cached_property
    def _socle(self) -> np.ndarray:
        """The identity and the elements of prime order, as the rows of
        a read-only int64 array, the identity first: for each prime p
        of the exponent (the primes of |A|), the nonzero elements of
        A[p] = {g : p g = 0}, whose coordinate j is a multiple of n_j / p
        where p divides n_j and 0 where it does not."""
        facs = self.invariant_factors
        rows = [(0,) * len(facs)]
        for p, _ in factorize(self.exponent):
            axes = [range(0, n, n // p) if n % p == 0 else (0,) for n in facs]
            rows.extend(itertools.islice(itertools.product(*axes), 1, None))
        socle = np.array(rows, dtype=np.int64)
        socle.flags.writeable = False
        return socle

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

    @cached_property
    def _flat_steps(self) -> tuple[int, ...]:
        """The step sizes of ``gram_steps``, row-major in one tuple."""
        _, steps = self._steps
        return tuple(itertools.chain.from_iterable(steps))

    @cached_property
    def _unit_generators(self) -> np.ndarray:
        """``unit_group_generators`` of the modulus of ``gram_steps``, as
        a read-only int64 array."""
        M, _ = self._steps
        units = np.array(unit_group_generators(M), dtype=np.int64)
        units.flags.writeable = False
        return units

    def __str__(self) -> str:
        if self.is_trivial:
            return "Z/1"
        return " + ".join(f"Z/{n}" for n in self.invariant_factors)


def gram_steps(group: FiniteAbelianGroup) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(modulus M, per-entry step sizes): entry (i, j) of a well-defined
    Gram matrix must be a multiple of step[i][j] modulo M.  Computed
    once per group."""
    return group._steps


def _socle_zero_rows(socle: np.ndarray, grams: np.ndarray, M: int) -> np.ndarray:
    """For each matrix E_i of a (c, k, k) int64 stack of Gram matrices,
    its entries already reduced mod M, the number of rows g of
    ``socle`` (s x k) whose 2 g^T E_i vanishes mod M, of shape (c,).
    With the group's socle, the identity among them, the count is 1 iff
    the form is nondegenerate (module docstring).

    Exact in int64 as G of ``_form_tables`` is: the socle rows are
    elements of the group."""
    twice = 2 * (socle @ grams) % M
    # the entries are not negative, so a row vanishes iff its sum does;
    # einsum sums the short last axis about three times faster than
    # .any(axis=2) reduces it
    return socle.shape[0] - np.count_nonzero(np.einsum("csj->cs", twice), axis=1)


def _form_tables(coords: np.ndarray, grams: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, T) of a (c, k, k) int64 stack of Gram matrices E, their
    entries already reduced mod M, over the elements ``coords``
    (|A| x k): G[i, g] = 2 g^T E_i, left unreduced, of shape (c, |A|, k),
    and T[i, g] = g^T E_i g mod M, of shape (c, |A|).

    Exact in int64: a coordinate g_j lies below n_j <= M and an entry
    of E in [0, M), so an entry of g^T E lies in [0, k M^2) and one of
    G below 2 k M^2, and T is summed from g^T E reduced mod M, k terms
    below M^2.  2 k M^2 < 2^63 holds for every group of order below
    2^27 (M <= 2 |A| and k <= log2 |A|); a larger group's G would take
    1 GiB for a single form."""
    half = coords @ grams
    tvec = np.einsum("cgj,gj->cg", half % M, coords) % M
    return 2 * half, tvec


def _survivor_tables(coords: np.ndarray, grams: np.ndarray, M: int, batch: int):
    """The (G, T) of each Gram matrix of the stack, in order, built
    ``batch`` matrices at a time as they are asked for.  Each pair is a
    copy, so that a yielded form owns its tables rather than views that
    keep the whole batch alive."""
    for start in range(0, len(grams), batch):
        gmats, tvecs = _form_tables(coords, grams[start:start + batch], M)
        for gmat, tvec in zip(gmats, tvecs):
            yield gmat.copy(), tvec.copy()


@dataclass(frozen=True)
class QuadraticFormSpec:
    """q(x) = zeta_M^(x^T gram x) over the invariant-factor generators."""

    group: FiniteAbelianGroup
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gram, group = self.gram, self.group
        k = len(group.invariant_factors)
        if len(gram) != k or any(map(k.__ne__, map(len, gram))):
            raise ValueError("gram matrix shape does not match the group")
        if list(zip(*gram)) != list(map(tuple, gram)):
            raise ValueError("gram matrix must be symmetric")
        _, steps = gram_steps(group)
        if any(map(operator.mod, itertools.chain.from_iterable(gram), group._flat_steps)):
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

    def _reduced_gram(self, M: int) -> np.ndarray:
        """The Gram matrix as a (1, k, k) int64 stack, its entries reduced
        mod M: q and b depend on them mod M only, and reduced as Python
        ints they fit int64 whatever their size."""
        k = len(self.gram)
        return np.array(
            [e % M for e in itertools.chain.from_iterable(self.gram)], dtype=np.int64
        ).reshape(1, k, k)

    @property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, T) over the elements g, rows in ``elements`` order:
        G[g, j] = 2 (E g)_j, the exponent of b(g, e_j) on zeta_M, left
        unreduced, and T[g] = g^T E g mod M, the exponent of q(g).
        b is a bicharacter, so b(g, h) = zeta_M^(G[g] . h mod M).

        Both come from ``_form_tables`` on a stack of one Gram matrix
        at the first access, unless ``enumerate_quadratic_forms`` handed
        them to the form through ``_take_tables``.  Either way they are
        kept in the instance ``__dict__``, where
        ``functools.cached_property`` would take a lock on each first
        access (Python 3.11)."""
        memo = self.__dict__
        if "_tables_memo" not in memo:
            M = self.modulus
            gmat, tvec = _form_tables(self.group._coords, self._reduced_gram(M), M)
            memo["_tables_memo"] = (gmat[0], tvec[0])
        return memo["_tables_memo"]

    def _take_tables(
        self, M: int, zero_rows: int, tables: tuple[np.ndarray, np.ndarray] | None
    ) -> None:
        """Keep the count of vanishing socle rows that
        ``_socle_zero_rows`` computed for this form's Gram matrix in a
        chunk at modulus M, as ``is_nondegenerate`` would, and the
        (G, T) that ``_form_tables`` built for it there, if any, as
        ``_tables`` would."""
        if M != self.modulus:
            raise ValueError(
                f"tables computed at modulus {M}, but the form's modulus is {self.modulus}")
        memo = self.__dict__
        memo["_zero_rows"] = (M, zero_rows)
        if tables is not None:
            memo["_tables_memo"] = tables

    def is_nondegenerate(self) -> bool:
        """Whether the radical {g : b(g, .) = 1} is the identity alone:
        whether the identity is the only socle row of G that vanishes
        mod M (module docstring).  The count is computed at the first
        call, with no tables, unless it was handed over with
        ``_take_tables``."""
        M = self.modulus
        memo = self.__dict__
        if "_zero_rows" not in memo:
            zero_rows = _socle_zero_rows(self.group._socle, self._reduced_gram(M), M)
            memo["_zero_rows"] = (M, int(zero_rows[0]))
        counted_at, zero_rows = memo["_zero_rows"]
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

    The candidates are checked a chunk at a time: one
    ``_socle_zero_rows`` call per chunk, then, for each candidate, the
    form is constructed (and so validated), handed its count, and its
    tables if it survives, and asked ``is_nondegenerate``.  The
    survivors' tables are built in batches as they are reached.
    ``max_forms`` is tested before each candidate is constructed.
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
    coords, socle = group._coords, group._socle
    chunk = max(1, _CHUNK_INT64S // (len(socle) * k))
    batch = max(1, _CHUNK_INT64S // (group.order * k))
    candidates = itertools.product(*rngs, (0,))
    seen: set[tuple[int, ...]] = set()
    for block in iter(lambda: list(itertools.islice(candidates, chunk)), []):
        # every value lies in [0, M): each range runs from 0 below M
        grams = np.array(block, dtype=np.int64)[:, flat_slots].reshape(-1, k, k)
        zero_rows = _socle_zero_rows(socle, grams, M)
        tables = _survivor_tables(coords, grams[zero_rows == 1], M, batch)
        for gram, zeros in zip(grams.tolist(), zero_rows.tolist()):
            if max_forms is not None and len(seen) >= max_forms:
                return
            # symmetric, and each entry a multiple of its step, by construction
            form = QuadraticFormSpec(group, tuple(map(tuple, gram)))
            form._take_tables(M, zeros, next(tables) if zeros == 1 else None)
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
    facs, radix = group._factor_array, group._radix
    keys = gmat % M // (M // facs)
    n = group.order
    column = np.full(n, -1, dtype=np.int64)
    column[keys @ radix] = np.arange(n)
    if (column < 0).any():
        raise ValueError("bicharacter columns are not distinct (degenerate form)")
    # the image keys of every unit generator at once, one row per generator
    units = group._unit_generators
    images = column[(units[:, None, None] * keys % facs) @ radix]
    return permutation_orbits(n, images.tolist())


def generator_partition(group: FiniteAbelianGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of the element indices into generator sets of cyclic
    subgroups: h ~ h' iff <h> = <h'>.

    h and h' generate the same cyclic subgroup iff h' = kh for a unit k
    modulo the order of h.  Every unit modulo that order lifts to a unit
    modulo the exponent (units modulo the exponent reduce onto the units
    modulo each of its divisors), so the parts are the orbits of the
    generators of (Z/exponent)^x acting on A by scaling."""
    facs = group._factor_array
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
