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
certifies sigma_hat_g for each g in a generating set of (Z/NZ)^x and
keeps those permutations alone.  The partition is memoized on the
datum, so it is computed once per ``ModularData`` and freed with it.

Every other check reads the action from the partition, and runs on the
generators only.  That suffices because sigma_hat is a group action:
sigma_j o sigma_k = sigma_{jk} on the field and the character columns
are distinct, so sigma_hat_jk = sigma_hat_j o sigma_hat_k, and every
unit is a product of generators (the group is finite).  An identity
that is closed under composition therefore holds for every unit once
it holds on the generators (``dims_ratio_check``,
``subcategories.is_galois_closed``); ``square_twist_consistency``
reports its constant per generator, which fixes the constant of every
unit; and ``subcategories.counting2_degree_check`` reads a fixing-group
index off the orbit of the unit object.  The two identities behind
this module are certified in split-prime slots by ``_splitprime``,
which holds their bounds: sigma_hat by ``certified_permutation`` and
the dimension ratio of ``dims_ratio_check`` by ``dims_ratio_failures``;
this module only reads their answers.
``verlinde_field_degree`` derives [L_X : Q] from the fixing group of
column X over every unit, as the exact reference for the orbit sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numtheory import permutation_orbits, unit_group_generators, units_mod
from ._splitprime import certified_permutation, dims_ratio_failures
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
    """Orbits of simple objects under (Z/NZ)^x, and sigma_hat_g for each
    g in ``unit_group_generators(N)``."""

    orbits: tuple[tuple[int, ...], ...]
    perms: dict[int, tuple[int, ...]]

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
    failure.

    Once no column is None, the map is a permutation.  Each certified
    entry sigma_hat_k(y) = z means sigma_k(chi_y) = chi_z for the
    characters chi_y(x) = s_xy / s_0y, so two columns y != y' with the
    same image would have sigma_k(chi_y) = sigma_k(chi_y'), hence
    chi_y = chi_y' and equal residue characters in every slot, while
    ``_splitprime._column_candidate`` accepts only a slot where the
    residue characters of the columns are distinct."""
    n = data.conductor
    if math.gcd(k, n) != 1:
        raise ValueError(f"{k} is not a unit modulo {n}")
    perm = certified_permutation(data._residues, k)
    if None in perm:
        y = perm.index(None)
        raise InvalidModularData(f"sigma_{k} maps column {y} outside the character table")
    return tuple(perm)


@memoized_on_datum
def orbit_partition(data: ModularData) -> GaloisOrbitPartition:
    """The orbits of (Z/NZ)^x on the simple objects, and sigma_hat_g for
    each generator g.

    Each sigma_hat_g is certified to be the action of sigma_g on the
    character columns, and the columns are distinct (their residues
    differ in the slot that ``_splitprime._column_candidate`` reads),
    so sigma_hat_k is unique for every unit k and k -> sigma_hat_k is a
    homomorphism: sigma_j o sigma_k = sigma_jk maps column Y to column
    sigma_hat_j(sigma_hat_k(Y)).  Every unit is a product of generators,
    so the orbits of the group are the orbits of the generators, and
    orbit-stabilizer holds at every object, as for any group action."""
    perms = {g: galois_permutation(data, g) for g in unit_group_generators(data.conductor)}
    return GaloisOrbitPartition(permutation_orbits(data.rank, perms.values()), perms)


def is_transitive(data: ModularData) -> bool:
    return orbit_partition(data).count == 1


def verlinde_field_degree(data: ModularData, x: int) -> int:
    """[L_X : Q] for the field L_X generated by the characters of
    column X, computed as the index of the fixing subgroup over every
    unit, and checked against the orbit size.  The columns are
    distinct, so sigma_k fixes column X iff sigma_hat_k(X) = X: the
    fixing group is the stabilizer of X, and the index is the orbit
    size by orbit-stabilizer."""
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
    """Per generator g of (Z/NZ)^x, the constant c_g with
    sigma_g^2(t_X) = zeta^c_g * t_{sigma_hat_g(X)} for all X (exponents
    mod the conductor)."""

    constants: dict[int, int]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def square_twist_consistency(data: ModularData) -> SquareTwistReport:
    """Whether sigma_k^2(t_X) / t_{sigma_hat_k(X)} is one root of unity
    zeta^c_k across X, for every unit k.

    It is checked on the generators only.  If the constants c_g and c_h
    exist, then, since sigma_hat_gh = sigma_hat_g o sigma_hat_h,

        (gh)^2 t_X - t_{sigma_hat_gh(X)}
            = g^2 (h^2 t_X - t_{sigma_hat_h(X)})
              + (g^2 t_{sigma_hat_h(X)} - t_{sigma_hat_g(sigma_hat_h(X))})
            = g^2 c_h + c_g   (mod N)

    for every X, so c_gh = c_g + g^2 c_h exists too, and every unit is a
    product of generators.  ``constants`` is keyed by generator."""
    n = data.conductor
    t = data.t_exponents
    constants: dict[int, int] = {}
    failures: list[str] = []
    for g, perm in orbit_partition(data).perms.items():
        ratios = {(g * g * t[x] - t[perm[x]]) % n for x in range(data.rank)}
        if len(ratios) == 1:
            constants[g] = ratios.pop()
        else:
            failures.append(
                f"sigma_{g}^2(t_X)/t_sigma(X) is not constant: exponents {sorted(ratios)}"
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

    Each identity is certified in split-prime slots
    (``_splitprime.dims_ratio_failures``)."""
    failures = dims_ratio_failures(data._residues, orbit_partition(data).perms)
    return DimsRatioReport(tuple(
        f"dimension ratio fails at unit {g}, index {x}" for g, x in failures
    ))


def galois_conjugate_data(data: ModularData, k: int) -> ModularData:
    """Entrywise conjugate data: sigma_k on s, twists t_X -> sigma_k(t_X).
    ``CycNum.galois_apply`` refuses a k that is not a unit modulo N."""
    n = data.conductor
    s = tuple(tuple(v.galois_apply(k) for v in row) for row in data.s)
    t = tuple((k * e) % n for e in data.t_exponents)
    return ModularData(n, data.rank, data.labels, s, t)
