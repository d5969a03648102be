"""Fusion subcategory lattice, centralizers, and structural predicates.

A fusion subcategory is a set of simple-object indices containing the
unit, closed under duality and under fusion support.  The lattice is
enumerated by closing the cyclic subcategories <X> under pairwise
joins; every fusion subcategory is a join of cyclic ones, so the
enumeration is complete.

Centralizers use the exact criterion: X centralizes Y iff
s_{X,Y} = dim(X) * dim(Y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from ._numtheory import factorize, is_prime, permutation_orbits, units_mod
from .cyclotomic import CycNum
from .galois_action import GaloisOrbitPartition, orbit_partition
from .modular_data import FusionTable, InvalidModularData, ModularData

__all__ = [
    "ClosureTheoremReport",
    "Counting2Report",
    "FusionSubcategory",
    "OrbitBoundReport",
    "TwoOrbitDiagnosis",
    "adjoint_part",
    "all_subcategories",
    "centralizer",
    "check_orbit_lower_bound",
    "check_theorem_galois_closure",
    "counting2_degree_check",
    "generated_subcategory",
    "is_galois_closed",
    "is_integral",
    "is_symmetric",
    "orbitwise_pseudoinvertible",
    "pointed_part",
    "pseudoinvertibles",
    "two_orbit_diagnosis",
]


@dataclass(frozen=True)
class FusionSubcategory:
    data: ModularData
    members: frozenset[int]

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    @property
    def rank(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return self.members == {0}

    @property
    def is_whole(self) -> bool:
        return len(self.members) == self.data.rank

    def dim(self) -> CycNum:
        total = CycNum.zero(self.data.conductor)
        for x in self.members:
            total = total + self.data.dims[x] * self.data.dims[x]
        return total

    def __contains__(self, x: int) -> bool:
        return x in self.members


def generated_subcategory(data: ModularData, seed) -> FusionSubcategory:
    """Smallest member set containing seed and the unit, closed under
    duality and fusion support (fixpoint iteration)."""
    table = data.fusion
    members = set(seed) | {0}
    members |= {table.dual[x] for x in members}
    frontier = list(members)
    while frontier:
        fresh: set[int] = set()
        for x in members:
            for y in frontier:
                for z in table.support(x, y):
                    if z not in members:
                        fresh.add(z)
        fresh |= {table.dual[z] for z in fresh}
        members |= fresh
        frontier = list(fresh)
    return FusionSubcategory(data, frozenset(members))


@lru_cache(maxsize=64)
def all_subcategories(data: ModularData, max_rank: int = 64) -> tuple[FusionSubcategory, ...]:
    """Every fusion subcategory, as joins of cyclic subcategories,
    sorted by size then member order."""
    if data.rank > max_rank:
        raise ValueError(f"rank {data.rank} exceeds the enumeration bound {max_rank}")
    cyclic = {generated_subcategory(data, {x}).members for x in range(data.rank)}
    closed = set(cyclic)
    closed.add(frozenset({0}))
    frontier = set(closed)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in cyclic:
                if b <= a:
                    continue
                join = generated_subcategory(data, a | b).members
                if join not in closed:
                    fresh.add(join)
        closed |= fresh
        frontier = fresh
    subs = [FusionSubcategory(data, m) for m in closed]
    subs.sort(key=lambda d: (len(d.members), d.sorted_members))
    return tuple(subs)


def centralizer(data: ModularData, sub: FusionSubcategory) -> FusionSubcategory:
    """{X : s_{X,Y} = dim(X) dim(Y) for all Y in the subcategory}."""
    dims = data.dims
    members = frozenset(
        x
        for x in range(data.rank)
        if all(data.s[x][y] == dims[x] * dims[y] for y in sub.members)
    )
    return FusionSubcategory(data, members)


def pointed_part(data: ModularData) -> FusionSubcategory:
    """Objects of Frobenius-Perron dimension exactly 1."""
    fp = data.fp_dims()
    members = frozenset(x for x in range(data.rank) if fp[x] == 1)
    return FusionSubcategory(data, members)


def adjoint_part(data: ModularData, check: bool = True) -> FusionSubcategory:
    """Subcategory generated by all X (x) X*; equals the centralizer of
    the pointed part (asserted when check=True)."""
    table = data.fusion
    seed: set[int] = set()
    for x in range(data.rank):
        seed.update(table.support(x, table.dual[x]))
    adj = generated_subcategory(data, seed)
    if check:
        cpt = pointed_part(data)
        if centralizer(data, cpt).members != adj.members:
            raise InvalidModularData(
                "adjoint subcategory differs from the centralizer of the pointed part"
            )
    return adj


# -- predicates --------------------------------------------------------------


def is_integral(data: ModularData, sub: FusionSubcategory) -> bool:
    fp = data.fp_dims()
    return all(fp[x].is_rational_integer for x in sub.members)


def is_symmetric(data: ModularData, sub: FusionSubcategory) -> bool:
    return sub.members <= centralizer(data, sub).members


def is_galois_closed(sub: FusionSubcategory, part: GaloisOrbitPartition | None = None) -> bool:
    part = part or orbit_partition(sub.data)
    members = sub.members
    return all(
        {perm[x] for x in members} == members for perm in part.perm_of_unit.values()
    )


def pseudoinvertibles(data: ModularData) -> frozenset[int]:
    """Objects with categorical dimension exactly +-1."""
    return frozenset(
        x for x, d in enumerate(data.dims) if d == 1 or d == -1
    )


def orbitwise_pseudoinvertible(data: ModularData) -> tuple[bool, str]:
    """Whether every Galois orbit meets a pseudoinvertible object; if it
    does, the data is consistent with a pointed x transitive factorization."""
    part = orbit_partition(data)
    pseudo = pseudoinvertibles(data)
    ok = all(any(x in pseudo for x in orbit) for orbit in part.orbits)
    if ok:
        shape = "pointed (x) transitive factorization shape"
    else:
        shape = "no factorization predicted"
    return ok, shape


# -- theorem-level checks -----------------------------------------------------


@dataclass(frozen=True)
class ClosureTheoremReport:
    """Per subcategory: Galois-closed vs integrality of the centralizer."""

    entries: tuple[tuple[tuple[int, ...], bool, bool], ...]
    adjoint_closed: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_theorem_galois_closure(data: ModularData, max_rank: int = 64) -> ClosureTheoremReport:
    part = orbit_partition(data)
    entries = []
    failures = []
    for sub in all_subcategories(data, max_rank):
        closed = is_galois_closed(sub, part)
        integral = is_integral(data, centralizer(data, sub))
        entries.append((sub.sorted_members, closed, integral))
        if closed != integral:
            failures.append(
                f"subcategory {sub.sorted_members}: galois_closed={closed}, "
                f"integral centralizer={integral}"
            )
        # double centralizer must return the subcategory itself
        if centralizer(data, centralizer(data, sub)).members != sub.members:
            failures.append(
                f"double centralizer fails for {sub.sorted_members}"
            )
    adj = adjoint_part(data)
    adjoint_closed = is_galois_closed(adj, part)
    if not adjoint_closed:
        failures.append("adjoint subcategory is not closed under the Galois action")
    return ClosureTheoremReport(tuple(entries), adjoint_closed, tuple(failures))


@dataclass(frozen=True)
class OrbitBoundReport:
    pointed_rank: int
    prime_powers: tuple[tuple[int, int], ...]
    bound: int
    orbit_count: int

    @property
    def ok(self) -> bool:
        return self.orbit_count >= self.bound


def check_orbit_lower_bound(data: ModularData) -> OrbitBoundReport:
    """|Orb| >= 1 + sum a_j where rank of the pointed part is
    prod p_j^a_j."""
    rank_pt = pointed_part(data).rank
    powers = factorize(rank_pt)
    bound = 1 + sum(a for _, a in powers)
    count = orbit_partition(data).count
    return OrbitBoundReport(rank_pt, tuple(powers), bound, count)


@dataclass(frozen=True)
class Counting2Report:
    entries: tuple[tuple[int, int, int, int], ...]  # (x, direct, orbit, degree)
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def counting2_degree_check(data: ModularData, sub: FusionSubcategory) -> Counting2Report:
    """|O_X meet D| = |O_X| / [K_D meet L_X : Q] for X in D, where K_D is
    generated by the dimensions of the centralizer of D.  Field degrees
    are computed as indices of fixing subgroups of (Z/NZ)^x."""
    n = data.conductor
    part = orbit_partition(data)
    units = units_mod(n)
    cent = centralizer(data, sub)
    dims = data.dims
    fix_kd = [
        k
        for k in units
        if all(dims[y].galois_apply(k) == dims[y] for y in cent.members)
    ]
    cols = data.character_columns
    entries = []
    failures = []
    for x in sorted(sub.members):
        orbit = part.orbit_of(x)
        fix_lx = [k for k in units if all(v.galois_apply(k) == v for v in cols[x])]
        # the subgroup both fixing sets generate: the orbit of 1 under them
        images = [[i * k % n for i in range(n)] for k in set(fix_kd) | set(fix_lx)]
        joint = next(o for o in permutation_orbits(n, images) if 1 % n in o)
        degree = len(units) // len(joint)  # [K_D meet L_X : Q]
        direct = len(set(orbit) & sub.members)
        expected, rem = divmod(len(orbit), degree)
        entries.append((x, direct, len(orbit), degree))
        if rem or direct != expected:
            failures.append(
                f"index {x}: |orbit meet D| = {direct}, |orbit| = {len(orbit)}, "
                f"[K_D meet L_X : Q] = {degree}"
            )
    return Counting2Report(tuple(entries), tuple(failures))


# -- two-orbit diagnosis ------------------------------------------------------


@dataclass(frozen=True)
class TwoOrbitDiagnosis:
    clause: str
    detail: str
    factor_pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def _factor_pairs(data: ModularData, subs) -> list[tuple[FusionSubcategory, FusionSubcategory]]:
    pairs = []
    for sub in subs:
        cent = centralizer(data, sub)
        if sub.members & cent.members != {0}:
            continue
        if sub.rank * cent.rank == data.rank:
            pairs.append((sub, cent))
    return pairs


def two_orbit_diagnosis(data: ModularData, max_rank: int = 64) -> TwoOrbitDiagnosis:
    """Which two-orbit classification clause the data is consistent
    with.  This checks numeric and structural signatures only; it never
    claims a categorical equivalence.

    With a nontrivial pointed part the candidate shapes are a pointed
    factor of prime rank times a transitive complement, or an Ising
    factor; with a trivial pointed part they are two golden-ratio
    rank-2 factors, or a simple category.
    """
    part = orbit_partition(data)
    if part.count != 2:
        raise ValueError("diagnosis applies to data with exactly two orbits")
    subs = all_subcategories(data, max_rank)
    proper = [s for s in subs if not s.is_trivial and not s.is_whole]
    fp = data.fp_dims()
    pairs = _factor_pairs(data, subs)

    if pointed_part(data).rank > 1:
        # (a) pointed factor of prime rank whose complement carries the
        # unit orbit (the whole category with a trivial complement counts)
        for sub, cent in pairs:
            if all(fp[x] == 1 for x in sub.members) and is_prime(sub.rank):
                if set(part.orbit_of(0)) == cent.members:
                    return TwoOrbitDiagnosis(
                        "pointed_prime_x_transitive",
                        f"pointed factor of prime rank {sub.rank}",
                        (sub.sorted_members, cent.sorted_members),
                    )
        # (b) Ising factor: a unique self-dual simple of dim^2 = 2
        dual = data.fusion.dual
        sqrt2 = [
            x
            for x in range(data.rank)
            if dual[x] == x and (data.dims[x] * data.dims[x]) == 2
        ]
        if len(sqrt2) == 1:
            return TwoOrbitDiagnosis(
                "ising_x_transitive",
                f"unique self-dual object {sqrt2[0]} with dim^2 = 2",
            )
    else:
        if not proper:
            return TwoOrbitDiagnosis(
                "simple", "no proper nontrivial fusion subcategory"
            )
        # (c) product of two non-integral rank-2 factors, both orbits size 2
        if set(part.sizes) == {2}:
            for sub, cent in pairs:
                if (
                    sub.rank == 2
                    and cent.rank == 2
                    and not is_integral(data, sub)
                    and not is_integral(data, cent)
                ):
                    return TwoOrbitDiagnosis(
                        "fib_x_fib",
                        "two non-integral rank-2 factors",
                        (sub.sorted_members, cent.sorted_members),
                    )
    return TwoOrbitDiagnosis(
        "unclassified", "no clause signature matched; see subcategory lattice"
    )
