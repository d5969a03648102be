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

Orbit counting has two routes that the tests play against each other:

* ``cyclic_subgroup_count`` evaluates the divisor-tuple sum
  sum phi(d_1)...phi(d_k) / phi(lcm(d_1,...,d_k)), which equals the
  number of Galois orbits;
* ``pointed_orbit_partition`` computes the orbits directly from the
  bicharacter matrix by exact column matching in exponent space (the
  s-entries are single roots of unity, and sigma_k multiplies their
  exponents by k), which is fast enough to sweep all groups of order
  up to 64 against the formula.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numtheory import (
    divisors,
    divisors_of,
    euler_phi,
    is_prime,
    permutation_orbits,
    trial_factor,
    unit_group_generators,
)
from .cyclotomic import root_of_unity
from .modular_data import ModularData

__all__ = [
    "FiniteAbelianGroup",
    "QuadraticFormSpec",
    "build_pointed",
    "canonical_form",
    "closed_form_counts",
    "cyclic_subgroup_count",
    "enumerate_quadratic_forms",
    "generator_partition",
    "gram_steps",
    "pointed_orbit_partition",
]

# Largest Gram-matrix candidate space ``enumerate_quadratic_forms``
# scans in full before it falls back to a sparser family.
MAX_CANDIDATES = 200_000

# Bounds of ``cyclic_subgroup_count``: the terms of its divisor-tuple
# sum (2^16 of them take 0.6 s on a 2-vCPU x86 VM; the rank-1800 groups
# have at most 128) and the primes of an invariant factor, so that
# finding its divisors takes at most that many trial divisions.
MAX_DIVISOR_TUPLES = 100_000
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
        if any(gram[i][j] != gram[j][i] for i in range(k) for j in range(i)):
            raise ValueError("gram matrix must be symmetric")
        M, steps = gram_steps(self.group)
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

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, T) over the elements g, rows in ``elements`` order:
        G[g, j] = 2 (E g)_j, the exponent of b(g, e_j) on zeta_M, left
        unreduced, and T[g] = g^T E g mod M, the exponent of q(g).
        b is a bicharacter, so b(g, h) = zeta_M^(G[g] . h mod M)."""
        M = self.modulus
        coords = self.group._coords
        k = coords.shape[1]
        # q and b depend on the entries mod M only; reduced as Python
        # ints, they fit int64 whatever their size
        gram = np.array([[e % M for e in row] for row in self.gram], dtype=np.int64).reshape(k, k)
        half = coords @ gram
        tvec = np.einsum("ij,ij->i", half, coords) % M
        return 2 * half, tvec

    def is_nondegenerate(self) -> bool:
        """Whether the radical {g : b(g, .) = 1} is the identity alone.
        b(g, h) = prod_j b(g, e_j)^(h_j), so b(g, .) = 1 iff
        b(g, e_j) = 1 for every generator e_j, that is, iff row g of G
        is zero mod M."""
        gmat, _ = self._tables
        zero_rows = len(gmat) - int(np.count_nonzero((gmat % self.modulus).any(axis=1)))
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
    """
    M, steps = gram_steps(group)
    k = len(group.invariant_factors)
    if k == 0:
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

    seen: set[tuple[int, ...]] = set()
    produced = 0
    for values in itertools.product(*rngs):
        gram = [[0] * k for _ in range(k)]
        for (i, j), v in zip(positions, values):
            gram[i][j] = v
            gram[j][i] = v
        # symmetric, and each entry a multiple of its step, by construction
        form = QuadraticFormSpec(group, tuple(tuple(row) for row in gram))
        if not form.is_nondegenerate():
            continue
        key = form.value_vector()
        if key in seen:
            continue
        seen.add(key)
        yield form
        produced += 1
        if max_forms is not None and produced >= max_forms:
            return


# -- building modular data ----------------------------------------------------


def build_pointed(group: FiniteAbelianGroup, form: QuadraticFormSpec | None = None) -> ModularData:
    """Rank-|A| modular data with s_{g,h} = b(g,h), t_g = q(g).

    The conductor is the lcm of the twist orders, M / c with
    c = gcd(M, q(g) over g): for divisors a, b of M,
    lcm(M/a, M/b) = M/gcd(a, b).  An exponent e of zeta_M is e / c on
    zeta_(M/c), and that division is exact for s as well as t:
    bmat[g, h] = G[g] . h = 2 g^T E h = q(g + h) - q(g) - q(h) (mod M), where
    q(g + h) is the twist of the element g + h because q is well
    defined on A, and c divides M and every twist."""
    form = form or canonical_form(group)
    if form.group != group:
        raise ValueError("form was built for a different group")
    if not form.is_nondegenerate():
        raise ValueError("quadratic form is degenerate")
    M = form.modulus
    gmat, tvec = form._tables
    bmat = gmat @ group._coords.T % M
    c = math.gcd(M, *tvec.tolist())
    labels = tuple("(" + ",".join(map(str, x)) + ")" if x else "0" for x in group.elements())
    s = tuple(tuple(root_of_unity(M // c, e) for e in row) for row in (bmat // c).tolist())
    return ModularData(M // c, group.order, labels, s, tuple((tvec // c).tolist()))


def pointed_orbit_partition(group: FiniteAbelianGroup, form: QuadraticFormSpec) -> tuple[tuple[int, ...], ...]:
    """Galois orbit partition of the pointed data, computed directly
    from the bicharacter matrix by column matching in exponent space."""
    if form.group != group:
        raise ValueError("form was built for a different group")
    gmat, _ = form._tables
    M = form.modulus
    # row h is column h of b: b(g, h) = G[g] . h
    cols = group._coords @ gmat.T % M
    n = cols.shape[0]
    col_key = {col.tobytes(): y for y, col in enumerate(cols)}
    if len(col_key) != n:
        raise ValueError("bicharacter columns are not distinct (degenerate form)")
    images = []
    for k in unit_group_generators(M):
        perm = [col_key.get(col.tobytes()) for col in k * cols % M]
        if None in perm:
            raise ValueError(f"unit {k} does not permute the columns")
        images.append(perm)
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
        np.ravel_multi_index((k * group._coords % facs).T, facs).tolist()
        for k in unit_group_generators(group.exponent)
    ]
    return permutation_orbits(group.order, images)


# -- counting ------------------------------------------------------------------


def cyclic_subgroup_count(group: FiniteAbelianGroup) -> int:
    """Number of cyclic subgroups, via the divisor-tuple sum
    sum phi(d_1)...phi(d_k) / phi(lcm(d_1,...,d_k)).  Each term is an
    integer: phi(a) phi(b) = phi(lcm(a, b)) phi(gcd(a, b)), so by
    induction on k, phi(d_1)...phi(d_k) is phi(lcm(d_1,...,d_k)) times
    a product of phis.

    The sum has d(n_1)...d(n_k) terms, so a group is refused with
    ``ValueError`` before any term when they number more than
    ``MAX_DIVISOR_TUPLES``, or when a factor has a prime above
    ``MAX_COUNT_PRIME``, which bounds the trial division that finds
    the divisors."""
    facs = group.invariant_factors
    if not facs:
        return 1
    tuples = 1
    factorizations = []
    for n in facs:
        factors, rest = trial_factor(n, MAX_COUNT_PRIME)
        if rest > 1:
            raise ValueError(
                f"invariant factor {n}: its factor {rest} has no prime factor up to "
                f"{MAX_COUNT_PRIME}, the largest prime counted"
            )
        tuples *= math.prod(e + 1 for _, e in factors)
        if tuples > MAX_DIVISOR_TUPLES:
            raise ValueError(
                f"the divisor-tuple sum of {group} has more than "
                f"{MAX_DIVISOR_TUPLES} terms"
            )
        factorizations.append(factors)
    total = 0
    for tup in itertools.product(*map(divisors_of, factorizations)):
        num = 1
        for d in tup:
            num *= euler_phi(d)
        term, rest = divmod(num, euler_phi(math.lcm(*tup)))
        assert rest == 0
        total += term
    return total


def closed_form_counts(kind: str, p: int | None = None, n: int | None = None) -> int:
    """Closed-form orbit counts:

    - 'cyclic_divisors': orbit count of pointed Z/n data = d(n);
    - 'elementary_abelian': 1 + (p^n - 1)/(p - 1);
    - 'product_cyclic': |Orb(pointed Z/p^n (x) rank-(p-1)/2 transitive)|
      = (n(p-1) + 2)/2, p >= 5 prime;
    - 'product_elementary_abelian': (p^n + 1)/2, p >= 5 prime.
    """
    if kind == "cyclic_divisors":
        if n is None or n < 1:
            raise ValueError("need n >= 1")
        return len(divisors(n))
    if p is None or n is None or n < 1:
        raise ValueError("need a prime p and n >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kind == "elementary_abelian":
        return 1 + (p**n - 1) // (p - 1)
    if kind in ("product_cyclic", "product_elementary_abelian"):
        if p < 5:
            raise ValueError("product formulas need p >= 5")
        if kind == "product_cyclic":
            num = n * (p - 1) + 2
        else:
            num = p**n + 1
        assert num % 2 == 0
        return num // 2
    raise ValueError(f"unknown kind {kind!r}")
