"""The Galois action on simple objects.

For a unit k mod N, sigma_k permutes the columns of the normalized
character table: sigma_hat(Y) is the unique Z with

    sigma_k(s_{X,Y} / s_{0,Y}) = s_{X,Z} / s_{0,Z}   for all X

(A. Coste and T. Gannon, *Remarks on Galois symmetry in rational
conformal field theories*, Phys. Lett. B 1994).  No character table is
built: ``galois_permutation`` reads sigma_hat in one split-prime slot
and certifies it with sigma_k(s_XY) s_0Z = s_XZ sigma_k(s_0Y) in every
slot of enough primes (``_splitprime.certified_permutation``).
``orbit_partition`` is the one place where the action is derived: it
certifies sigma_hat for a generating set of (Z/NZ)^x and extends to the
full unit group by composition, which is forced by the group-action law
sigma_j o sigma_k = sigma_{jk}; the law itself is exercised against
direct matching in the test suite.  Its stabilizers are the fixing
groups of the character fields.  The partition is memoized on the
datum, so it is computed once per ``ModularData`` and freed with it.

Every other check reads the action from the partition.
``dims_ratio_check`` and ``subcategories.is_galois_closed`` run on the
generators only: each identity is closed under composition, so it holds
for the group once it holds on a generating set.  ``dims_ratio_check``
is certified in split-prime slots like sigma_hat.
``square_twist_consistency`` runs over every unit, since it reports a
constant per unit.  ``verlinde_field_degree`` derives [L_X : Q] from the
fixing group of column X directly, as the reference for the stabilizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numtheory import permutation_orbits, unit_group_generators, units_mod
from ._splitprime import certified_permutation, primes_over, refuted, sigma_slots
from .modular_data import InvalidModularData, ModularData, memoized_on_datum

__all__ = [
    "DimsRatioReport",
    "GaloisOrbitPartition",
    "SquareTwistReport",
    "dims_ratio_check",
    "galois_conjugate_data",
    "galois_permutation",
    "is_transitive",
    "orbit_partition",
    "square_twist_consistency",
    "verlinde_field_degree",
]


@dataclass(frozen=True)
class GaloisOrbitPartition:
    """Orbits of simple objects, the permutation per unit, and the
    stabilizer subgroup of each index inside (Z/NZ)^x."""

    orbits: tuple[tuple[int, ...], ...]
    perm_of_unit: dict[int, tuple[int, ...]]
    stabilizers: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.orbits)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)

    def orbit_of(self, x: int) -> tuple[int, ...]:
        for orbit in self.orbits:
            if x in orbit:
                return orbit
        raise IndexError(x)


def galois_permutation(data: ModularData, k: int) -> tuple[int, ...]:
    """sigma_hat for one unit k, certified in split-prime slots
    (``_splitprime.certified_permutation``).  It needs only what
    ``ModularData._table_preconditions`` checks, and raises its first
    failure."""
    n = data.conductor
    if math.gcd(k, n) != 1:
        raise ValueError(f"{k} is not a unit modulo {n}")
    perm = certified_permutation(data._residues, k)
    if None in perm:
        y = perm.index(None)
        raise InvalidModularData(f"sigma_{k} maps column {y} outside the character table")
    if len(set(perm)) != data.rank:
        raise InvalidModularData(f"sigma_{k} does not permute the columns")
    return tuple(perm)


@memoized_on_datum
def orbit_partition(data: ModularData) -> GaloisOrbitPartition:
    """The orbits of (Z/NZ)^x on the simple objects, sigma_hat for every
    unit, and the stabilizer of each object.

    The stabilizer of X is also the fixing group of the field L_X
    generated by the characters of column X: the columns are distinct,
    so sigma_k fixes column X iff sigma_hat_k(X) = X.  Hence
    Fix(L_X) = Stab(X), and [L_X : Q] = |orbit of X|, because this
    function raises unless |orbit| * |Stab| = phi(N) at every index."""
    n = data.conductor
    r = data.rank
    identity = tuple(range(r))
    gens = unit_group_generators(n)
    gen_perms = {g: galois_permutation(data, g) for g in gens}

    perms: dict[int, tuple[int, ...]] = {1 % n: identity}
    queue = [1 % n]
    for k in queue:  # the list grows while it is walked
        for g, gp in gen_perms.items():
            if (kk := k * g % n) not in perms:
                perms[kk] = tuple(gp[i] for i in perms[k])  # sigma_g o sigma_k
                queue.append(kk)
    assert set(perms) == set(units_mod(n))

    orbits = permutation_orbits(r, gen_perms.values())

    stabilizers = tuple(
        tuple(k for k in sorted(perms) if perms[k][i] == i) for i in range(r)
    )
    phi = len(perms)
    for i in range(r):
        orbit_len = len(orbits[[i in o for o in orbits].index(True)])
        if orbit_len * len(stabilizers[i]) != phi:
            raise InvalidModularData(
                f"orbit-stabilizer mismatch at index {i}"
            )
    return GaloisOrbitPartition(orbits, perms, stabilizers)


def is_transitive(data: ModularData) -> bool:
    return orbit_partition(data).count == 1


def verlinde_field_degree(data: ModularData, x: int) -> int:
    """[L_X : Q] for the field L_X generated by the characters of
    column X, computed as the index of the fixing subgroup, and checked
    against the orbit size."""
    inv = data.dims[x].inverse()
    col = [row[x] * inv for row in data.s]
    units = units_mod(data.conductor)
    fixing = [k for k in units if all(v.galois_apply(k) == v for v in col)]
    degree, rem = divmod(len(units), len(fixing))
    if rem:
        raise InvalidModularData(f"fixing set of column {x} is not a subgroup")
    orbit = orbit_partition(data).orbit_of(x)
    if degree != len(orbit):
        raise InvalidModularData(f"[L_{x}:Q] = {degree} but the orbit of {x} has size {len(orbit)}")
    return degree


@dataclass(frozen=True)
class SquareTwistReport:
    """Per unit k, the constant c_k with sigma_k^2(t_X) = zeta^c_k *
    t_{sigma_hat_k(X)} for all X (exponents mod the conductor)."""

    constants: dict[int, int]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def square_twist_consistency(data: ModularData) -> SquareTwistReport:
    n = data.conductor
    part = orbit_partition(data)
    t = data.t_exponents
    constants: dict[int, int] = {}
    failures: list[str] = []
    for k, perm in sorted(part.perm_of_unit.items()):
        ratios = {(k * k * t[x] - t[perm[x]]) % n for x in range(data.rank)}
        if len(ratios) == 1:
            constants[k] = ratios.pop()
        else:
            failures.append(
                f"sigma_{k}^2(t_X)/t_sigma(X) is not constant: exponents {sorted(ratios)}"
            )
    return SquareTwistReport(constants, tuple(failures))


@dataclass(frozen=True)
class DimsRatioReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def dims_ratio_check(data: ModularData) -> DimsRatioReport:
    """dim(sigma_hat(X))^2 * sigma(dim C) = dim(C) * sigma(dim(X)^2),
    exactly, for every object and every unit.

    It is checked on the generators of (Z/NZ)^x only.  As dim(C) != 0,
    the identity for sigma_k says sigma_k(f(X)) = f(sigma_hat_k(X)) for
    all X, with f(X) = dim(X)^2 / dim(C).  If it holds for sigma_g and
    sigma_h, then, since sigma_hat_gh = sigma_hat_g o sigma_hat_h,

        sigma_gh(f(X)) = sigma_g(f(sigma_hat_h(X)))
                       = f(sigma_hat_g(sigma_hat_h(X))) = f(sigma_hat_gh(X)).

    The group is finite, so every unit is a product of generators, and
    the identity holds for every unit (for the unit 1 it is trivial).

    Each identity is certified in split-prime slots: sigma_k moves the
    slots (``sigma_slots``), and with L the largest l1 norm of an entry,
    each side is at most r L^4 under every embedding, so B = 2 r L^4."""
    perms = orbit_partition(data).perm_of_unit
    n = data.conductor
    gens = unit_group_generators(n)
    if not gens:
        return DimsRatioReport(())
    moved = [(sigma_slots(n, g), list(perms[g])) for g in gens]

    def ratio(prime, img, slots):
        p = prime.p
        sq = img[:, 0] * img[:, 0] % p  # sq[j, x] = dim(X)^2 in slot j
        dim_c = sq.sum(axis=1) % p
        return np.stack([
            sq[slots][:, perm] * dim_c[at[slots], None] - dim_c[slots, None] * sq[at[slots]]
            for at, perm in moved
        ], axis=1)

    bad = refuted(data._residues, primes_over(n, 2 * data.rank * data._residues.l1 ** 4), ratio)
    return DimsRatioReport(tuple(
        f"dimension ratio fails at unit {g}, index {x}"
        for g, row in zip(gens, bad) for x in np.flatnonzero(row)
    ))


def galois_conjugate_data(data: ModularData, k: int) -> ModularData:
    """Entrywise conjugate data: sigma_k on s, twists t_X -> sigma_k(t_X).
    ``CycNum.galois_apply`` refuses a k that is not a unit modulo N."""
    n = data.conductor
    s = tuple(tuple(v.galois_apply(k) for v in row) for row in data.s)
    t = tuple((k * e) % n for e in data.t_exponents)
    return ModularData(n, data.rank, data.labels, s, t)
