"""Fusion subcategory lattice, centralizers, and structural predicates.

A fusion subcategory is a set of simple-object indices containing the
unit, closed under duality and under fusion support.  Everything here
reads two relation tables, built once per ``ModularData`` and memoized
on it (``_relations``): the fusion support of each pair of objects and,
for each object, the objects that centralize it.

The lattice is enumerated in one pass over the cyclic subcategories
<X>.  In a braided category the join of two subcategories is the set
of simple summands of A (x) B, so each join is one pass over A x B with
no fixpoint; every fusion subcategory is a join of cyclic ones, so the
enumeration is complete (the argument is in ``all_subcategories``).

Centralizers use the exact criterion: X centralizes Y iff
s_{X,Y} = dim(X) * dim(Y), an identity certified for every pair at once
in split-prime slots by ``_splitprime.certified_centralizing``, which
holds its bound.  A centralizer is the intersection of the table rows
of its members and does no cyclotomic arithmetic.

The lattice is memoized on the datum, so it is enumerated once per
``ModularData`` and freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numtheory import factorize, is_prime
from ._splitprime import certified_centralizing
from .cyclotomic import CycNum, dot
from .galois_action import orbit_partition
from .modular_data import InvalidModularData, ModularData, memoized_on_datum

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
        dims = [self.data.dims[x] for x in self.members]
        return dot(dims, dims)


_Rows = tuple[frozenset[int], ...]


@memoized_on_datum
def _relations(data: ModularData) -> tuple[tuple[_Rows, ...], _Rows]:
    """The two tables the lattice is read from: ``support[x][y]``, the
    simple summands {z : N_xy^z != 0} of x (x) y, and
    ``centralizing[y]``, the objects {x : s_xy = d_x d_y} that
    centralize y, with d_x = s_0x, certified in split-prime slots
    (``_splitprime.certified_centralizing``)."""
    support = tuple(
        tuple(frozenset(z for z, n in enumerate(row) if n) for row in rows)
        for rows in data.fusion.coeffs
    )
    return support, certified_centralizing(data._residues)


def _summands(support, a, b) -> frozenset[int]:
    """The simple summands of A (x) B."""
    return frozenset().union(*(support[x][y] for x in a for y in b))


def generated_subcategory(data: ModularData, seed) -> FusionSubcategory:
    """Smallest member set containing seed and the unit, closed under
    duality and fusion support.

    The seed with the unit is closed under duals once; then m becomes
    the summands of m (x) m until it stops changing.  m holds the unit,
    so it only grows, and (x (x) y)* = y* (x) x* keeps it closed under
    duals; it stops exactly when m is closed under fusion."""
    support, _ = _relations(data)
    dual = data.fusion.dual
    members = frozenset(seed) | {0}
    members |= {dual[x] for x in members}
    while (grown := _summands(support, members, members)) != members:
        members = grown
    return FusionSubcategory(data, members)


@memoized_on_datum
def all_subcategories(data: ModularData) -> tuple[FusionSubcategory, ...]:
    """Every fusion subcategory, sorted by size then member order.

    The join of two fusion subcategories A and B is the set of simple
    summands of A (x) B (Drinfeld, Gelaki, Nikshych and Ostrik, *On
    braided fusion categories I*, 2010).  At the level of the data: the
    Verlinde table is commutative because s is symmetric, so if z is in
    a (x) b and z' in a' (x) b', the summands of z (x) z' lie among
    those of (a (x) a') (x) (b (x) b'), hence among those of some
    a'' (x) b'' with a'' in A and b'' in B; and (a (x) b)* = b* (x) a*
    = a* (x) b*.  So the summands are closed under fusion and duals,
    contain A and B (both hold the unit), and lie in every subcategory
    that contains A and B.

    Every subcategory is the join of the cyclic subcategories <x> of its
    members.  One pass over the cyclic c_1, ..., c_r suffices: after
    c_k, ``found`` holds the join of every subset of c_1, ..., c_k,
    since the join of a subset holding c_k is the join of c_k with the
    join of the rest, which is already found."""
    support, _ = _relations(data)
    found = {frozenset({0})}
    for c in {generated_subcategory(data, {x}).members for x in range(data.rank)}:
        found |= {_summands(support, a, c) for a in found if not c <= a}
    subs = [FusionSubcategory(data, m) for m in found]
    subs.sort(key=lambda d: (len(d.members), d.sorted_members))
    return tuple(subs)


def centralizer(sub: FusionSubcategory) -> FusionSubcategory:
    """{X : s_{X,Y} = dim(X) dim(Y) for all Y in the subcategory}: the
    intersection of the ``centralizing`` rows of its members
    (Mueger, *On the structure of modular categories*, 2003)."""
    data = sub.data
    _, centralizing = _relations(data)
    members = frozenset(range(data.rank)).intersection(
        *(centralizing[y] for y in sub.members)
    )
    return FusionSubcategory(data, members)


def pointed_part(data: ModularData) -> FusionSubcategory:
    """Objects of Frobenius-Perron dimension exactly 1."""
    fp = data.fp_dims
    members = frozenset(x for x in range(data.rank) if fp[x] == 1)
    return FusionSubcategory(data, members)


def adjoint_part(data: ModularData) -> FusionSubcategory:
    """Subcategory generated by all X (x) X*; checked to equal the
    centralizer of the pointed part."""
    support, _ = _relations(data)
    dual = data.fusion.dual
    adj = generated_subcategory(
        data, frozenset().union(*(support[x][dual[x]] for x in range(data.rank)))
    )
    if centralizer(pointed_part(data)).members != adj.members:
        raise InvalidModularData(
            "adjoint subcategory differs from the centralizer of the pointed part"
        )
    return adj


# -- predicates --------------------------------------------------------------


def is_integral(sub: FusionSubcategory) -> bool:
    fp = sub.data.fp_dims
    return all(fp[x].is_rational_integer for x in sub.members)


def is_galois_closed(sub: FusionSubcategory) -> bool:
    """Whether sigma_hat_k maps the subcategory onto itself for every
    unit k.  It is checked on the generators of (Z/NZ)^x only: if
    sigma_hat_g and sigma_hat_h fix the member set, so does
    sigma_hat_gh = sigma_hat_g o sigma_hat_h, and every unit is a
    product of generators."""
    members = sub.members
    perms = orbit_partition(sub.data).perms.values()
    return all({perm[x] for x in members} == members for perm in perms)


def pseudoinvertibles(data: ModularData) -> frozenset[int]:
    """Objects with categorical dimension exactly +-1."""
    return frozenset(
        x for x, d in enumerate(data.dims) if d == 1 or d == -1
    )


def orbitwise_pseudoinvertible(data: ModularData) -> bool:
    """Whether every Galois orbit meets a pseudoinvertible object; if it
    does, the data is consistent with a pointed x transitive factorization."""
    pseudo = pseudoinvertibles(data)
    return all(any(x in pseudo for x in orbit) for orbit in orbit_partition(data).orbits)


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


def check_theorem_galois_closure(data: ModularData) -> ClosureTheoremReport:
    entries = []
    failures = []
    for sub in all_subcategories(data):
        closed = is_galois_closed(sub)
        integral = is_integral(centralizer(sub))
        entries.append((sub.sorted_members, closed, integral))
        if closed != integral:
            failures.append(
                f"subcategory {sub.sorted_members}: galois_closed={closed}, "
                f"integral centralizer={integral}"
            )
        # double centralizer must return the subcategory itself
        if centralizer(centralizer(sub)).members != sub.members:
            failures.append(
                f"double centralizer fails for {sub.sorted_members}"
            )
    adj = adjoint_part(data)
    adjoint_closed = is_galois_closed(adj)
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


def counting2_degree_check(sub: FusionSubcategory) -> Counting2Report:
    """|O_X meet D| = |O_X| / [K_D meet L_X : Q] for X in D, where K_D is
    generated by the dimensions of the centralizer of D and L_X by the
    characters of column X.  Field degrees are indices of fixing
    subgroups of (Z/NZ)^x.

    The degree is the same for every X in D.  With s_00 = 1,
    d_Y = s_Y0 / s_00, so sigma_k(d_Y) = s_{Y,Z} / d_Z with
    Z = sigma_hat_k(0), which is d_Y exactly when Z centralizes Y.  So
    sigma_k fixes K_D exactly when sigma_hat_k(0) lies in C(C(D)).  For
    X in D and Y in C(D), the character s_YX / d_X is d_Y, so
    K_D is contained in L_X and [K_D meet L_X : Q] = [K_D : Q].

    It is read off the orbit O_0 of the unit object: k -> sigma_hat_k(0)
    maps (Z/NZ)^x onto O_0, and each fibre is a coset of the stabilizer
    of 0, so the fixing group of K_D has |O_0 meet C(C(D))| |Stab(0)|
    elements, and [K_D : Q] = |O_0| / |O_0 meet C(C(D))|."""
    part = orbit_partition(sub.data)
    unit_orbit = part.orbit_of(0)
    degree = len(unit_orbit) // len(centralizer(centralizer(sub)).members & set(unit_orbit))
    entries = []
    failures = []
    for x in sorted(sub.members):
        orbit = part.orbit_of(x)
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
        cent = centralizer(sub)
        if sub.members & cent.members != {0}:
            continue
        if sub.rank * cent.rank == data.rank:
            pairs.append((sub, cent))
    return pairs


def two_orbit_diagnosis(data: ModularData) -> TwoOrbitDiagnosis:
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
    subs = all_subcategories(data)
    proper = [s for s in subs if not s.is_trivial and not s.is_whole]
    fp = data.fp_dims
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
                    and not is_integral(sub)
                    and not is_integral(cent)
                ):
                    return TwoOrbitDiagnosis(
                        "fib_x_fib",
                        "two non-integral rank-2 factors",
                        (sub.sorted_members, cent.sorted_members),
                    )
    return TwoOrbitDiagnosis(
        "unclassified", "no clause signature matched; see subcategory lattice"
    )
