"""The Galois action on simple objects.

For a unit k mod N, sigma_k permutes the columns of the normalized
character table: sigma_hat(Y) is the unique Z with

    sigma_k(s_{X,Y} / s_{0,Y}) = s_{X,Z} / s_{0,Z}   for all X.

``galois_permutation`` performs this matching directly for one unit.
``orbit_partition`` matches columns for a generating set of (Z/NZ)^x
and extends to the full unit group by composition, which is forced by
the group-action law sigma_j o sigma_k = sigma_{jk}; the law itself is
exercised against direct matching in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._numtheory import permutation_orbits, unit_group_generators, units_mod
from .modular_data import InvalidModularData, ModularData

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

    conductor: int
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
    """sigma_hat for one unit k, by exact column matching."""
    n = data.conductor
    if math.gcd(k, n) != 1:
        raise ValueError(f"{k} is not a unit modulo {n}")
    cols = data.character_columns
    index = data.column_index
    perm = []
    for y in range(data.rank):
        image = tuple(v.galois_apply(k) for v in cols[y])
        z = index.get(image)
        if z is None:
            raise InvalidModularData(
                f"sigma_{k} maps column {y} outside the character table"
            )
        perm.append(z)
    if len(set(perm)) != data.rank:
        raise InvalidModularData(f"sigma_{k} does not permute the columns")
    return tuple(perm)


@lru_cache(maxsize=256)
def orbit_partition(data: ModularData) -> GaloisOrbitPartition:
    n = data.conductor
    r = data.rank
    identity = tuple(range(r))
    gens = unit_group_generators(n)
    gen_perms = {g: galois_permutation(data, g) for g in gens}

    one = 1 % n if n > 1 else 0
    perms: dict[int, tuple[int, ...]] = {one: identity}
    frontier = [one]
    while frontier:
        nxt = []
        for k in frontier:
            base = perms[k]
            for g, gp in gen_perms.items():
                kk = (k * g) % n
                if kk not in perms:
                    perms[kk] = tuple(gp[i] for i in base)  # sigma_g o sigma_k
                    nxt.append(kk)
        frontier = nxt
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
    return GaloisOrbitPartition(n, orbits, perms, stabilizers)


def is_transitive(data: ModularData) -> bool:
    return orbit_partition(data).count == 1


def verlinde_field_degree(data: ModularData, x: int) -> int:
    """[L_X : Q] for the field L_X generated by the characters of
    column X, computed as the index of the fixing subgroup, and checked
    against the orbit size."""
    n = data.conductor
    col = data.character_columns[x]
    units = units_mod(n)
    fixing = [k for k in units if all(v.galois_apply(k) == v for v in col)]
    degree, rem = divmod(len(units), len(fixing))
    if rem:
        raise InvalidModularData(f"fixing set of column {x} is not a subgroup")
    orbit = orbit_partition(data).orbit_of(x)
    if degree != len(orbit):
        raise InvalidModularData(
            f"[L_{x}:Q] = {degree} but the orbit of {x} has size {len(orbit)}"
        )
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
    exactly, for every object and every unit."""
    part = orbit_partition(data)
    dim_c = data.global_dim
    dims = data.dims
    failures: list[str] = []
    for k, perm in sorted(part.perm_of_unit.items()):
        sdim_c = dim_c.galois_apply(k)
        for x in range(data.rank):
            lhs = dims[perm[x]] * dims[perm[x]] * sdim_c
            rhs = dim_c * (dims[x] * dims[x]).galois_apply(k)
            if lhs != rhs:
                failures.append(f"dimension ratio fails at unit {k}, index {x}")
    return DimsRatioReport(tuple(failures))


def galois_conjugate_data(data: ModularData, k: int) -> ModularData:
    """Entrywise conjugate data: sigma_k on s, twists t_X -> sigma_k(t_X)."""
    n = data.conductor
    if math.gcd(k, n) != 1:
        raise ValueError(f"{k} is not a unit modulo {n}")
    s = tuple(tuple(v.galois_apply(k) for v in row) for row in data.s)
    t = tuple((k * e) % n for e in data.t_exponents)
    return ModularData(n, data.rank, data.labels, s, t)
