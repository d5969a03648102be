"""Pointed modular data from finite abelian groups with nondegenerate
quadratic forms, and orbit counting.

A form is specified by a symmetric integer Gram matrix E over the
invariant-factor generators: q(x) = zeta_M^(x^T E x) with modulus
M = 2 * exponent(A) when |A| is even and M = exponent(A) when odd.
The associated bicharacter is b(g, h) = zeta_M^(2 g^T E h), and the
built s-matrix is s_{g,h} = b(g,h) with twists t_g = q(g).

Well-definedness on A constrains the Gram entries to multiples of
per-entry step sizes (``gram_steps``); nondegeneracy means the radical
{g : b(g, .) = 1} is trivial, certified on construction.

Orbit counting has two routes that the tests play against each other:

* ``cyclic_subgroup_count`` evaluates the divisor-tuple sum
  sum phi(d_1)...phi(d_k) / phi(lcm(d_1,...,d_k)), which equals the
  number of Galois orbits;
* ``pointed_orbit_partition`` computes the orbits directly from the
  bicharacter matrix by exact column matching in exponent space (the
  s-entries are single roots of unity, and sigma_k multiplies their
  exponents by k), which is fast enough to sweep all groups of order
  up to 64 against the formula.
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
    factorize,
    is_prime,
    permutation_orbits,
    trial_factor,
    unit_group_generators,
    units_mod,
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

    @classmethod
    def from_orders(cls, orders) -> "FiniteAbelianGroup":
        """Canonicalize an arbitrary direct sum of cyclic groups."""
        primary: dict[int, list[int]] = {}
        for n in orders:
            if n < 1:
                raise ValueError("cyclic orders must be positive")
            for p, e in factorize(n):
                primary.setdefault(p, []).append(p**e)
        k = max((len(v) for v in primary.values()), default=0)
        factors = []
        for i in range(k):
            f = 1
            for p, powers in primary.items():
                powers_sorted = sorted(powers, reverse=True)
                if i < len(powers_sorted):
                    f *= powers_sorted[i]
            factors.append(f)
        return cls(tuple(sorted(factors)))

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

    def element_order(self, x) -> int:
        o = 1
        for xi, ni in zip(x, self.invariant_factors):
            o = math.lcm(o, ni // math.gcd(ni, xi))
        return o

    def scale(self, k: int, x) -> tuple[int, ...]:
        return tuple((k * xi) % ni for xi, ni in zip(x, self.invariant_factors))

    def __str__(self) -> str:
        if self.is_trivial:
            return "Z/1"
        return " + ".join(f"Z/{n}" for n in self.invariant_factors)


def gram_steps(group: FiniteAbelianGroup) -> tuple[int, list[list[int]]]:
    """(modulus M, per-entry step sizes): entry (i, j) of a well-defined
    Gram matrix must be a multiple of step[i][j] modulo M."""
    facs = group.invariant_factors
    L = group.exponent
    M = 2 * L if group.order % 2 == 0 else L
    k = len(facs)
    steps = [[1] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                c = math.gcd(M, facs[i] * math.gcd(2, facs[i]))
            else:
                c = math.gcd(M, 2 * min(facs[i], facs[j]))
            steps[i][j] = M // c
    return M, steps


@dataclass(frozen=True)
class QuadraticFormSpec:
    """q(x) = zeta_M^(x^T gram x) over the invariant-factor generators."""

    group: FiniteAbelianGroup
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.group.invariant_factors)
        if len(self.gram) != k or any(len(row) != k for row in self.gram):
            raise ValueError("gram matrix shape does not match the group")
        for i in range(k):
            for j in range(k):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        M, steps = gram_steps(self.group)
        for i in range(k):
            for j in range(k):
                if self.gram[i][j] % steps[i][j] != 0:
                    raise ValueError(
                        f"gram entry ({i},{j}) = {self.gram[i][j]} is not a multiple "
                        f"of {steps[i][j]}, so q is not well defined on the group"
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
        """(B, T): bicharacter exponent matrix over all elements, and the
        twist exponent vector, both mod the modulus."""
        M = self.modulus
        coords = np.array(self.group.elements(), dtype=np.int64)
        gram = np.array(self.gram, dtype=np.int64)
        if coords.size == 0:
            return np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
        prod = coords @ gram @ coords.T
        bmat = (2 * prod) % M
        tvec = np.diag(prod) % M
        return bmat, tvec

    def is_nondegenerate(self) -> bool:
        bmat, _ = self._tables
        zero_rows = int(np.sum(~np.any(bmat % self.modulus, axis=1)))
        return zero_rows == 1

    def value_vector(self) -> tuple[int, ...]:
        """q on all elements as exponents mod M; identifies the form."""
        _, tvec = self._tables
        return tuple(int(v) for v in tvec)


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
    MAX_CANDIDATES of them; otherwise a deterministic tridiagonal family
    (free diagonal, superdiagonal off-entries only) is used.  ``max_forms``
    caps the yield.
    """
    M, steps = gram_steps(group)
    k = len(group.invariant_factors)
    if k == 0:
        yield QuadraticFormSpec(group, ())
        return

    positions = [(i, j) for i in range(k) for j in range(i, k)]

    def ranges(pos):
        total = 1
        rngs = []
        for i, j in pos:
            step = steps[i][j]
            count = M // step
            rngs.append([step * v for v in range(count)])
            total *= count
        return rngs, total

    rngs, total = ranges(positions)
    if total > MAX_CANDIDATES:
        # tridiagonal fallback: keep diagonal plus the superdiagonal
        positions = [(i, i) for i in range(k)] + [(i, i + 1) for i in range(k - 1)]
        rngs, total = ranges(positions)
        if total > MAX_CANDIDATES:
            # final fallback: diagonal only
            positions = [(i, i) for i in range(k)]
            rngs, total = ranges(positions)

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
    """Rank-|A| modular data with s_{g,h} = b(g,h), t_g = q(g)."""
    form = form or canonical_form(group)
    if form.group != group:
        raise ValueError("form was built for a different group")
    if not form.is_nondegenerate():
        raise ValueError("quadratic form is degenerate")
    M = form.modulus
    bmat, tvec = form._tables
    n_elems = max(group.order, 1)
    # conductor = lcm of the twist orders; for divisors a, b of M,
    # lcm(M/a, M/b) = M/gcd(a, b)
    conductor = M // math.gcd(M, *map(int, tvec))
    scale = conductor  # exponent e of zeta_M becomes e*conductor/M on zeta_conductor
    labels = []
    for x in group.elements() or [()]:
        labels.append("(" + ",".join(map(str, x)) + ")" if x else "0")
    s_rows = []
    for g in range(n_elems):
        row = []
        for h in range(n_elems):
            e = int(bmat[g, h]) * scale
            if e % M:
                raise ValueError("bicharacter value escapes the conductor field")
            row.append(root_of_unity(conductor, e // M))
        s_rows.append(tuple(row))
    t_exponents = []
    for g in range(n_elems):
        e = int(tvec[g]) * scale
        assert e % M == 0
        t_exponents.append(e // M)
    return ModularData(
        conductor, n_elems, tuple(labels), tuple(s_rows), tuple(t_exponents)
    )


def pointed_orbit_partition(group: FiniteAbelianGroup, form: QuadraticFormSpec) -> tuple[tuple[int, ...], ...]:
    """Galois orbit partition of the pointed data, computed directly
    from the bicharacter matrix by column matching in exponent space."""
    bmat, _ = form._tables
    M = form.modulus
    n = bmat.shape[0]
    col_key = {bmat[:, y].tobytes(): y for y in range(n)}
    if len(col_key) != n:
        raise ValueError("bicharacter columns are not distinct (degenerate form)")
    images = []
    for k in unit_group_generators(M):
        image = (k * bmat) % M
        perm = [col_key.get(image[:, y].tobytes()) for y in range(n)]
        if None in perm:
            raise ValueError(f"unit {k} does not permute the columns")
        images.append(perm)
    return permutation_orbits(n, images)


def generator_partition(group: FiniteAbelianGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of the element indices into generator sets of cyclic
    subgroups: h ~ h' iff <h> = <h'>."""
    elems = group.elements()
    index = {e: i for i, e in enumerate(elems)}
    seen: set[int] = set()
    parts = []
    for i, h in enumerate(elems):
        if i in seen:
            continue
        m = group.element_order(h)
        orbit = sorted(
            {index[group.scale(k, h)] for k in units_mod(m)}
        )
        seen.update(orbit)
        parts.append(tuple(orbit))
    return tuple(sorted(parts, key=min))


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
