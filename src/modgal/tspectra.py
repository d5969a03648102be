"""Root-of-unity spectra of SL(2, Z/NZ) irreducible representations.

A ``RootSet`` is a level n and the exponents e of its roots zeta_n^e,
at the least level, gcd(n, *exps) = 1, so equal sets compare equal and
reaching that form costs one gcd per set.  The building blocks are

* Phi_n: all n-th roots of unity,
* Gamma_n: the primitive ones,
* Gamma_{p^lam}^r: the square Galois orbit of zeta_{p^lam}^r, i.e. its
  orbit under zeta -> zeta^(k^2) over units k,
* Phi_n^r: the value set {zeta_n^(r x^2) : x in Z}.

The classification tables for prime-power levels are encoded as data
(one ``TableRow`` per instantiated row) carrying the printed dimension,
spectrum, multiplicity-free flag and square-orbit count.  One registry,
keyed by the level (whether p = 2, and lam), holds the builder of the
rows at each level p^lam, and ``rows_for_levels`` is the one way to
reach them.  It covers the verified levels only, 2^lam with lam <= 7
and p^lam with p odd and lam <= 3, with the levels of one N summing to
at most ``MAX_LEVEL_SUM``; anything else raises ``ValueError``.  ``verify_rows`` recomputes the orbit
count from the spectrum and cross-checks the multiplicity-free flag
against the cardinality/dimension relation, with one result per row.
The count needs no orbit walk: once the spectrum is closed under the
squares of the generators of the unit group, every orbit of its roots
of order n has |(Z/nZ)^x^2| elements (``square_galois_orbit_count``).

Three printed rows are internally inconsistent in the source text and
are encoded with the unique reading consistent with their dimension and
orbit count; rows carrying only a lower bound on the orbit count are
checked as inequalities, with the multiplicity flag left unchecked for
the sigma-parameterized family.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from ._numtheory import trial_factor, unit_group_generators, units_mod
from .cyclotomic import CycNum, dot, root_of_unity

__all__ = [
    "MAX_LEVEL_SUM",
    "PsiMatrixReport",
    "RootSet",
    "RowResult",
    "TableRow",
    "TableVerification",
    "make_gamma",
    "make_gamma_res",
    "make_phi",
    "make_phi_res",
    "psi_e_matrix_check",
    "rows_for_levels",
    "square_galois_orbit_count",
    "verify_rows",
]


@dataclass(frozen=True)
class RootSet:
    """The roots zeta_level^e, e in ``exps``, at the least level: each e
    in [0, level) and gcd(level, *exps) = 1.  The empty set is (1, {})."""

    level: int
    exps: frozenset[int]

    @classmethod
    def of(cls, level: int, exps) -> "RootSet":
        """zeta_level^e for e in ``exps``, brought to the least level."""
        exps = {e % level for e in exps}
        g = math.gcd(level, *exps)
        return cls(level // g, frozenset(e // g for e in exps))

    def __len__(self) -> int:
        return len(self.exps)

    def union_disjoint(self, *others: "RootSet") -> "RootSet":
        """The union at the lcm L of the levels, zeta_n^e = zeta_L^(e L/n).
        L is the least level: the orders of the roots of a set at level n
        have lcm n / gcd(n, *exps) = n, so those of the union have lcm L,
        which is L / gcd(L, *exps)."""
        big = math.lcm(self.level, *(other.level for other in others))
        total: set[int] = set()
        for part in (self, *others):
            k = big // part.level
            lifted = {e * k for e in part.exps}
            overlap = total & lifted
            if overlap:
                pairs = sorted(_pair(big, e) for e in overlap)
                raise ValueError(f"union is not disjoint: {pairs}")
            total |= lifted
        return RootSet(big, frozenset(total))


def _pair(m: int, e: int) -> tuple[int, int]:
    # zeta_m^e as (order, exp) in lowest terms, (1, 0) for e = 0
    g = math.gcd(e, m)
    return (m // g, e // g)


@lru_cache(maxsize=None)
def _unit_squares(n: int) -> frozenset[int]:
    """{u^2 mod n : u a unit mod n}; {0} for n = 1."""
    return frozenset((u * u) % n for u in units_mod(n))


def make_phi(n: int) -> RootSet:
    """All n-th roots of unity."""
    return RootSet(n, frozenset(range(n)))


def make_gamma(n: int) -> RootSet:
    """The primitive n-th roots of unity."""
    return RootSet(n, frozenset(units_mod(n)))


def make_gamma_res(p: int, lam: int, r: int) -> RootSet:
    """The square Galois orbit of zeta_{p^lam}^r (gcd(r, p) = 1)."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    q = p**lam
    if math.gcd(r, p) != 1:
        raise ValueError(f"residue {r} is not coprime to {p}")
    return RootSet(q, frozenset(r * s % q for s in _unit_squares(q)))


def make_phi_res(n: int, r: int) -> RootSet:
    """{zeta_n^(r x^2) : x in Z}."""
    return RootSet.of(n, {r * x * x % n for x in range(n)})


def square_galois_orbit_count(s: RootSet) -> int:
    """Number of orbits of the set under zeta -> zeta^(k^2), k a unit
    modulo its level m, which acts on the exponents as e -> e k^2 mod m.
    The set must be a union of full orbits; a violation raises, naming
    the first element (least as an (order, exp) pair in lowest terms,
    for the first generator) whose image leaves the set.

    Squaring is a homomorphism of the abelian group (Z/mZ)^x, so the
    squares g^2 of its generators generate its squares.  Each map
    e -> e g^2 mod m is injective, g^2 being a unit; a finite set it
    maps into itself it permutes, so closure under the g^2 is closure
    under every k^2.  The maps keep gcd(e, m), so zeta_m^e keeps its
    order n = m / gcd(e, m).  (Z/mZ)^x maps onto (Z/nZ)^x, so on the
    roots of order n the k^2 act as the group (Z/nZ)^x^2, which acts
    freely: every orbit there has |(Z/nZ)^x^2| elements, and the count
    is the sum over n of c_n / |(Z/nZ)^x^2|, c_n the roots of order n."""
    m, exps = s.level, s.exps
    if not exps:
        raise ValueError("empty root set")
    for g in unit_group_generators(m):
        gg = g * g % m
        if {e * gg % m for e in exps} != exps:
            n, e = min(_pair(m, e) for e in exps if e * gg % m not in exps)
            raise ValueError(
                f"set is not closed under the square action: {(n, e)} -> {(n, e * gg % n)}"
            )
    orders = Counter(m // math.gcd(e, m) for e in exps)
    return sum(c // len(_unit_squares(n)) for n, c in orders.items())


# -- table rows -----------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    table: int
    label: str
    level: int
    dim: int
    spectrum: RootSet
    mf: bool | None  # None: unchecked (bound-only families)
    gal: int | None = None
    gal_min: int | None = None

    def describe(self) -> str:
        return f"Table {self.table}: {self.label} (level {self.level}, dim {self.dim})"


_G1 = make_phi(1)
_G2 = make_gamma(2)


def _least_nonresidue(p: int) -> int:
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ValueError(f"{p} has no quadratic non-residue (not an odd prime?)")


def _table1(p: int) -> list[TableRow]:
    rows = []
    qr, qn = 1, _least_nonresidue(p)
    phi_p, gamma_p = make_phi(p), make_gamma(p)
    rows.append(TableRow(1, f"D_1(chi) p={p}", p, p + 1, phi_p, False, 3))
    rows.append(TableRow(1, f"N_1(chi) p={p}", p, p - 1, gamma_p, True, 2))
    for r in (qr, qn):
        rows.append(
            TableRow(1, f"R_1({r},chi_1) p={p}", p, (p + 1) // 2,
                     _G1.union_disjoint(make_gamma_res(p, 1, r)), True, 2)
        )
        rows.append(
            TableRow(1, f"R_1({r},chi_-1) p={p}", p, (p - 1) // 2,
                     make_gamma_res(p, 1, r), True, 1)
        )
    rows.append(TableRow(1, f"N_1(chi_1) p={p}", p, p, phi_p, True, 3))
    return rows


def _sigma_set(p: int, lam: int, sigma: int, r: int, t: int) -> RootSet:
    """{zeta_{p^lam}^(r(x^2 + p^sigma t y^2)) : p | x, p does not divide y}."""
    q = p**lam
    xs = {(x * x) % q for x in range(0, q, p)}
    return RootSet.of(
        q, {r * (a + p**sigma * t * b) % q for a in xs for b in _unit_squares(q)}
    )


def _table2(p: int, lam: int) -> list[TableRow]:
    rows = []
    q = p**lam
    qr, qn = 1, _least_nonresidue(p)
    rows.append(
        TableRow(2, f"D_{lam}(chi) p={p}", q, (p + 1) * p ** (lam - 1),
                 make_phi(q), False, 2 * lam + 1)
    )
    rows.append(
        TableRow(2, f"N_{lam}(chi) p={p}", q, (p - 1) * p ** (lam - 1),
                 make_gamma(q), True, 2)
    )
    dim_r = (p * p - 1) * p ** (lam - 2) // 2
    for sigma in range(1, lam):
        for r in (qr, qn):
            for t in (qr, qn):
                spec = make_gamma_res(p, lam, r).union_disjoint(
                    _sigma_set(p, lam, sigma, r, t)
                )
                rows.append(
                    TableRow(2, f"R_{lam}^{sigma}({r},{t},chi) p={p}", q, dim_r,
                             spec, sigma == 1, gal_min=sigma + 1)
                )
    for r in (qr, qn):
        spec = make_gamma_res(p, lam, r).union_disjoint(
            make_phi_res(p ** (lam - 2), r)
        )
        rows.append(
            TableRow(2, f"R_{lam}({r},chi_+-)_1 p={p}", q, dim_r, spec,
                     lam == 2 and p == 3, lam)
        )
    return rows


def _g(lam: int, r: int) -> RootSet:
    return make_gamma_res(2, lam, r)


def _table3() -> list[TableRow]:
    return [
        TableRow(3, "C_2 = N_1(chi)", 2, 1, _G2, True, 1),
        TableRow(3, "N_1(chi_1)", 2, 2, make_phi(2), True, 2),
    ]


def _table4() -> list[TableRow]:
    return [
        TableRow(4, "R_2^0(1,1,chi_1)", 4, 3, make_phi(2).union_disjoint(_g(2, 1)), True, 3),
        TableRow(4, "R_2^0(3,1,chi_1)", 4, 3, make_phi(2).union_disjoint(_g(2, 3)), True, 3),
        TableRow(4, "R_2^0(1,3)_1", 4, 3, _G1.union_disjoint(make_gamma(4)), True, 3),
        TableRow(4, "C_2 x R_2^0(1,3)_1", 4, 3, _G2.union_disjoint(make_gamma(4)), True, 3),
        TableRow(4, "N_2(chi), chi != 1", 4, 2, make_gamma(4), True, 2),
        TableRow(4, "C_3 = R_2^0(3,1,chi)", 4, 1, _g(2, 3), True, 1),
        TableRow(4, "C_4 = R_2^0(1,1,chi)", 4, 1, _g(2, 1), True, 1),
    ]


def _table5() -> list[TableRow]:
    rows = []
    gamma4 = make_gamma(4)
    # dim 6 with a 4-element spectrum: not multiplicity-free (printed
    # flag contradicts the printed dimension and orbit count)
    for (r, t), (a, b) in {
        (1, 1): (1, 3), (1, 3): (1, 7), (3, 3): (3, 5), (5, 1): (5, 7),
    }.items():
        rows.append(
            TableRow(5, f"R_3^1({r},{t},chi_1)", 8, 6,
                     gamma4.union_disjoint(_g(3, a), _g(3, b)), False, 4)
        )
    rows.append(
        TableRow(5, "R_3^0(1,3,chi_1)_1", 8, 6,
                 make_phi(2).union_disjoint(make_gamma(8)), True, 6)
    )
    rows.append(
        TableRow(5, "C_3 x R_3^0(1,3,chi_1)_1", 8, 6,
                 gamma4.union_disjoint(make_gamma(8)), True, 6)
    )
    rows.append(
        TableRow(5, "N_3(chi), chi^2 != 1", 8, 4,
                 _g(3, 1).union_disjoint(_g(3, 3), _g(3, 5), _g(3, 7)), True, 4)
    )
    for j, (a, b) in {1: (3, 5), 2: (1, 7), 3: (1, 3), 4: (5, 7)}.items():
        rows.append(
            TableRow(5, f"C_{j} x N_3(chi)_+", 8, 2,
                     _g(3, a).union_disjoint(_g(3, b)), True, 2)
        )
    plus = {1: _G2, 2: _G1, 3: _g(2, 1), 4: _g(2, 3)}
    for j, head in plus.items():
        rows.append(
            TableRow(5, f"C_{j} x R_3^0(1,3,chi)_+", 8, 3,
                     head.union_disjoint(_g(3, 1), _g(3, 5)), True, 3)
        )
    for j, head in plus.items():
        rows.append(
            TableRow(5, f"C_{j} x R_3^0(1,3,chi)_-", 8, 3,
                     head.union_disjoint(_g(3, 3), _g(3, 7)), True, 3)
        )
    return rows


def _table6() -> list[TableRow]:
    rows = []
    rows.append(TableRow(6, "D_4(chi)", 16, 24, make_phi(16), False, 12))
    rows.append(TableRow(6, "N_4(chi)", 16, 8, make_gamma(16), True, 4))
    for r in (1, 3):
        for t in (1, 5):
            tail = (_g(3, r), _g(3, 5 * r)) if t == 1 else (_g(3, 3 * r), _g(3, 7 * r))
            rows.append(
                TableRow(6, f"R_4^0({r},{t},chi), chi != 1", 16, 6,
                         _g(4, r).union_disjoint(_g(4, 5 * r), *tail), True, 4)
            )
    threes = {
        ("R_4^0(1,1,chi)_+", 1): (5, 1), ("R_4^0(1,1,chi)_+", 2): (1, 1),
        ("R_4^0(1,1,chi)_+", 3): (3, 5), ("R_4^0(1,1,chi)_+", 4): (7, 5),
        ("R_4^0(1,1,chi)_-", 1): (1, 5), ("R_4^0(1,1,chi)_-", 2): (5, 5),
        ("R_4^0(1,1,chi)_-", 3): (7, 1), ("R_4^0(1,1,chi)_-", 4): (3, 1),
        ("R_4^0(3,1,chi)_+", 1): (7, 3), ("R_4^0(3,1,chi)_+", 2): (3, 3),
        ("R_4^0(3,1,chi)_+", 3): (5, 7), ("R_4^0(3,1,chi)_+", 4): (1, 7),
        ("R_4^0(3,1,chi)_-", 1): (3, 7), ("R_4^0(3,1,chi)_-", 2): (7, 7),
        ("R_4^0(3,1,chi)_-", 3): (1, 3), ("R_4^0(3,1,chi)_-", 4): (5, 3),
    }
    for (base, j), (a, b) in threes.items():
        rows.append(
            TableRow(6, f"C_{j} x {base}", 16, 3,
                     _g(3, a).union_disjoint(_g(4, b)), True, 2)
        )
    for t in (3, 7):
        tail = (_g(3, 3), _g(3, 5)) if t == 3 else (_g(3, 1), _g(3, 7))
        for sign in "+-":
            rows.append(
                TableRow(6, f"R_4^0(1,{t},chi)_{sign}", 16, 6,
                         _g(4, 1).union_disjoint(_g(4, 7), *tail), True, 4)
            )
    quads = {
        (1, 1): (_G2, _g(2, 1)), (1, 3): (_G1, _g(2, 3)),
        (3, 1): (_G2, _g(2, 3)), (3, 3): (_G1, _g(2, 1)),
    }
    for (r, t), (h1, h2) in quads.items():
        rows.append(
            TableRow(6, f"R_4^2({r},{t},chi), chi != 1", 16, 6,
                     h1.union_disjoint(h2, _g(4, r), _g(4, 5 * r)), True, 4)
        )
    for r in (1, 3):
        rows.append(
            TableRow(6, f"C_2 x R_4^2({r},3,chi), chi != 1", 16, 6,
                     _G2.union_disjoint(_g(2, r), _g(4, r), _g(4, 5 * r)), True, 4)
        )
    for r in (1, 3):
        rows.append(
            TableRow(6, f"R_4^2({r},3,chi_1)_1", 16, 6,
                     _G1.union_disjoint(_g(2, 3), _g(4, 1), _g(4, 5)), True, 4)
        )
    rows.append(
        TableRow(6, "N_3(chi)_+ x R_4^0(1,7,psi)_+", 16, 12,
                 _G2.union_disjoint(make_gamma(4), make_gamma(16)), False, 7)
    )
    return rows


def _table7() -> list[TableRow]:
    rows = []
    rows.append(TableRow(7, "D_5(chi)", 32, 48, make_phi(32), False, 16))
    rows.append(TableRow(7, "N_5(chi)", 32, 16, make_gamma(32), True, 4))
    for r in (1, 3):
        for t in (1, 5):
            tail = (_g(4, r), _g(4, 5 * r)) if t == 1 else (_g(4, 3 * r), _g(4, 7 * r))
            rows.append(
                TableRow(7, f"R_5^0({r},{t},chi)", 32, 12,
                         _g(5, r).union_disjoint(_g(5, 5 * r), *tail), True, 4)
            )
    for t in (3, 7):
        tail = make_gamma(8) if t == 3 else make_phi(4)
        rows.append(
            TableRow(7, f"R_5^0(1,{t},chi)", 32, 24,
                     make_gamma(32).union_disjoint(tail), False, 8)
        )
    # t -> (the residues r, Gamma_32^c beside Gamma_32^1, Gamma_16^(ar), Gamma_16^(br))
    for t, rs, c, (a, b) in ((1, (1, 5), 3, (1, 3)), (3, (1, 3), 7, (3, 5)),
                             (5, (1, 5), 3, (5, 7)), (7, (1, 3), 7, (1, 7))):
        for r in rs:
            rows.append(
                TableRow(7, f"R_5^1({r},{t},chi)", 32, 12,
                         _g(5, 1).union_disjoint(_g(5, c), _g(4, a * r), _g(4, b * r)), True, 4)
            )
    # printed spectrum (Gamma_16 u Gamma_32^r) has 12 elements, which a
    # dim-6 representation cannot carry; the unique 6-element shape with
    # 3 full orbits and a level-32 part is used instead
    for r in (1, 3):
        for t in (1, 3, 5, 7):
            for sign in "+-":
                rows.append(
                    TableRow(7, f"R_5^2({r},{t},chi)_{sign}", 32, 6,
                             _g(5, r).union_disjoint(_g(3, r), _G2), True, 3)
                )
    for r in (1, 3):
        rows.append(
            TableRow(7, f"R_5^2({r},1,chi)_1, chi not in B", 32, 12,
                     _G1.union_disjoint(_G2, _g(3, r), _g(3, 5 * r), _g(5, r), _g(5, 5 * r)),
                     True, 6)
        )
    # trailing columns of this printed row are lost; values derived from
    # the 12-element spectrum (= dim) and its 6 square orbits
    for r in (1, 3):
        rows.append(
            TableRow(7, f"C_3 x R_5^2({r},1,chi)_1, chi not in B", 32, 12,
                     make_gamma(4).union_disjoint(
                     _g(3, 3 * r), _g(3, 7 * r), _g(5, r), _g(5, 5 * r)
                     ),
                     True, 6)
        )
    return rows


def _sigma_set_2(lam: int, sigma: int, r: int) -> RootSet:
    """{zeta_{2^lam}^(r(x^2 + 2^sigma y^2)) : x or y odd}."""
    q = 2**lam
    return RootSet.of(
        q, {r * (x * x + 2**sigma * y * y) % q
            for x in range(q) for y in range(q) if (x | y) & 1}
    )


def _table8(lam: int) -> list[TableRow]:
    q = 2**lam
    rows = []
    rows.append(
        TableRow(8, f"D_{lam}(chi)", q, 3 * 2 ** (lam - 1), make_phi(q), False, 4 * (lam - 1))
    )
    rows.append(
        TableRow(8, f"N_{lam}(chi)", q, 2 ** (lam - 1), make_gamma(q), True, 4)
    )
    rows.append(
        TableRow(8, f"R_{lam}^0(1,3,chi)", q, 3 * 2 ** (lam - 2),
                 make_gamma(q).union_disjoint(make_gamma(2 ** (lam - 2))), False, 8)
    )
    rows.append(
        TableRow(8, f"R_{lam}^0(1,7,chi)", q, 3 * 2 ** (lam - 2),
                 make_gamma(q).union_disjoint(make_phi(2 ** (lam - 3))), False, 4 * (lam - 3))
    )
    dim8 = 3 * 2 ** (lam - 3)
    for r in (1, 3):
        for t in (1, 5):
            tail = (
                (_g(lam - 1, r), _g(lam - 1, 5 * r))
                if t == 1
                else (_g(lam - 1, 3 * r), _g(lam - 1, 7 * r))
            )
            rows.append(
                TableRow(8, f"R_{lam}^0({r},{t},chi)", q, dim8,
                         _g(lam, r).union_disjoint(_g(lam, 5 * r), *tail), True, 4)
            )
    for r in (1, 3):
        for t in (3, 7):
            rows.append(
                TableRow(8, f"R_{lam}^1({r},{t},chi)", q, dim8,
                         _g(lam, r).union_disjoint(
                         _g(lam, 5 * r), _g(lam - 1, r * t), _g(lam - 1, 7 * r * t)
                         ), True, 4)
            )
    for r in (1, 5):
        for t in (1, 5):
            rows.append(
                TableRow(8, f"R_{lam}^1({r},{t},chi)", q, dim8,
                         _g(lam, r).union_disjoint(
                         _g(lam, 5 * r), _g(lam - 1, r * t), _g(lam - 1, 3 * r * t)
                         ), True, 4)
            )
    for r in (1, 3):
        rows.append(
            TableRow(8, f"R_{lam}^2({r},1,chi)", q, dim8,
                     _g(lam, r).union_disjoint(
                     _g(lam, 5 * r), _g(lam - 2, r), _g(lam - 2, 5 * r),
                     _g(lam - 3, r), _g(lam - 3, 5 * r)
                     ), False, 6)
        )
    if lam >= 7:
        # Gamma_{2^(lam-4)} needs level >= 8 for the printed count of 8
        for r in (1, 3):
            rows.append(
                TableRow(8, f"R_{lam}^2({r},3,chi)", q, dim8,
                         _g(lam, r).union_disjoint(
                         _g(lam, 5 * r), _g(lam - 2, 3 * r), _g(lam - 2, 15 * r),
                         make_gamma(2 ** (lam - 4))
                         ), False, 8)
            )
    for r in (1, 3):
        rows.append(
            TableRow(8, f"R_{lam}^2({r},5,chi)", q, dim8,
                     _g(lam, r).union_disjoint(
                     _g(lam, 5 * r), _g(lam - 2, 5 * r), _g(lam - 2, 25 * r),
                     _g(lam - 3, 3 * r), _g(lam - 3, 7 * r)
                     ), False, 6)
        )
    for r in (1, 3):
        # printed count 4(lam-6) drops the four Gamma orbits; the
        # spectrum itself forces 4 + |orbits of Phi_{2^(lam-5)}|
        rows.append(
            TableRow(8, f"R_{lam}^2({r},7,chi)", q, dim8,
                     _g(lam, r).union_disjoint(
                     _g(lam, 5 * r), _g(lam - 2, 7 * r), _g(lam - 2, 35 * r),
                     make_phi(2 ** (lam - 5))
                     ), False, 6 if lam == 6 else 4 * (lam - 5))
        )
    dim_s = 3 * 2 ** (lam - 4)
    for sigma in range(3, lam - 2):
        for r in (1, 3, 5, 7):
            rows.append(
                TableRow(8, f"R_{lam}^{sigma}({r},t,chi)", q, dim_s,
                         _sigma_set_2(lam, sigma, r), None, gal_min=sigma + 1)
            )
    if lam >= 7:
        for r in (1, 3, 5, 7):
            for t in (1, 3):
                spec = _g(lam, r).union_disjoint(
                    _g(lam - 2, r), _g(lam - 4, r), make_phi_res(2 ** (lam - 6), r)
                )
                rows.append(
                    TableRow(8, f"R_{lam}^{lam-2}({r},{t},chi)", q, dim_s, spec,
                             False, lam - 2)
                )
                rows.append(
                    TableRow(8, f"R_{lam}^{lam-3}({r},{t},chi_+-1)_1", q, dim_s, spec,
                             False, lam - 2)
                )
    if lam == 6:
        for r in (1, 3, 5, 7):
            rows.append(
                TableRow(8, f"R_6^4({r},1,chi_1)_1", q, 12,
                         _G1.union_disjoint(_g(2, r), _g(4, 5 * r), _g(6, r)), True, 4)
            )
            for t in (1, 3):
                rows.append(
                    TableRow(8, f"C_2 x R_6^4({r},{t},chi_1)_1", q, 12,
                             _G2.union_disjoint(_g(2, 3 * r), _g(4, 5 * r), _g(6, r)),
                             True, 4)
                )
    return rows


# -- the table registry ------------------------------------------------------

# (level is a power of 2, lam) -> builder(p, lam); each row carries its
# table number.  These are the verified levels: every row at 2^lam with
# lam <= 7 and at p^lam with p odd and lam <= 3 passes verify_rows.  The
# row formulas carried past them fail (20 of 52 rows at 2^8, 6 of 16 at
# p^4), so those levels are refused rather than checked.
_TABLES = {
    (False, 1): lambda p, lam: _table1(p),
    (False, 2): _table2,
    (False, 3): _table2,
    (True, 1): lambda p, lam: _table3(),
    (True, 2): lambda p, lam: _table4(),
    (True, 3): lambda p, lam: _table5(),
    (True, 4): lambda p, lam: _table6(),
    (True, 5): lambda p, lam: _table7(),
    (True, 6): lambda p, lam: _table8(lam),
    (True, 7): lambda p, lam: _table8(lam),
}

# Largest sum of the prime-power levels p^lam whose rows are built for
# one N.  The spectra at p^lam hold at most a few times p^lam roots, so
# the sum bounds the work of the whole check: the product of the primes
# below 3000 would ask for 3,005 rows.  The bound sits just above
# 211 + 211^2 = 44732, the largest sum the benchmark checks.
MAX_LEVEL_SUM = 50_000


def rows_for_levels(bound: int) -> list[TableRow]:
    """All encoded rows whose level divides the bound, by ascending p
    and lam.  A bound below 1, one divisible by a level outside the
    verified scope, or one whose levels sum above ``MAX_LEVEL_SUM``
    raises before any row is built."""
    if bound < 1:
        raise ValueError(f"level {bound}: N must be >= 1")
    # a prime above MAX_LEVEL_SUM is a level above it, so trial
    # division stops there and a cofactor left over is refused
    factors, rest = trial_factor(bound, MAX_LEVEL_SUM)
    if rest > 1:
        raise ValueError(
            f"level {bound}: its factor {rest} has no prime factor up to "
            f"{MAX_LEVEL_SUM}, the largest prime-power level checked"
        )
    builds = []
    for p, e in factors:
        for lam in range(1, e + 1):
            build = _TABLES.get((p == 2, lam))
            if build is None:
                raise ValueError(
                    f"level {p**lam} = {p}^{lam} is outside the verified t-spectra "
                    "scope (2^lam with lam <= 7, p^lam with p odd and lam <= 3)"
                )
            builds.append((build, p, lam))
    total = sum(p**lam for _, p, lam in builds)
    if total > MAX_LEVEL_SUM:
        raise ValueError(
            f"level {bound}: its prime-power levels sum to {total}, above "
            f"{MAX_LEVEL_SUM}, the largest sum checked"
        )
    return [row for build, p, lam in builds for row in build(p, lam)]


@dataclass(frozen=True)
class RowResult:
    row: TableRow
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class TableVerification:
    results: tuple[RowResult, ...]

    @property
    def checked(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(
            f"{r.row.describe()}: {failure}" for r in self.results for failure in r.failures
        )

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def _row_failures(row: TableRow) -> list[str]:
    try:
        got = square_galois_orbit_count(row.spectrum)
    except ValueError as exc:
        return [str(exc)]
    failures = []
    if row.gal is not None and got != row.gal:
        failures.append(f"square orbit count {got}, table says {row.gal}")
    if row.gal_min is not None and got < row.gal_min:
        failures.append(f"square orbit count {got} below bound {row.gal_min}")
    if row.mf is True and len(row.spectrum) != row.dim:
        failures.append(
            f"multiplicity-free but |spectrum| = {len(row.spectrum)} != dim"
        )
    if row.mf is False and len(row.spectrum) >= row.dim:
        failures.append(
            f"not multiplicity-free but |spectrum| = {len(row.spectrum)} >= dim"
        )
    return failures


def verify_rows(rows) -> TableVerification:
    """Recompute each row's square-orbit count and multiplicity
    cardinality relation against the encoded values; one result per
    row, with every reason it fails."""
    return TableVerification(
        tuple(RowResult(row, tuple(_row_failures(row))) for row in rows)
    )


# -- the 3x3 even-part matrix check ------------------------------------------


@dataclass(frozen=True)
class PsiMatrixReport:
    k: int
    symmetric: bool
    square_is_scalar: bool
    scalar_exponent: int  # power of zeta_4

    @property
    def ok(self) -> bool:
        return self.symmetric and self.square_is_scalar


def psi_e_matrix_check(k: int) -> PsiMatrixReport:
    """Exact check that (zeta_4^k / 2) [[0, d, -d], [d, 1, 1], [-d, 1, 1]]
    with d^2 = 2 squares to zeta_4^(2k) times the identity."""
    if not 0 <= k <= 3:
        raise ValueError("k must be 0..3")
    n = 8
    d = root_of_unity(n, 1) + root_of_unity(n, 7)  # sqrt(2)
    one = CycNum.one(n)
    zero = CycNum.zero(n)
    f = root_of_unity(n, 2 * k) * CycNum.rational("1/2", n)
    base = ((zero, d, -d), (d, one, one), (-d, one, one))
    mat = [[f * v for v in row] for row in base]
    symmetric = all(mat[i][j] == mat[j][i] for i in range(3) for j in range(3))
    want = root_of_unity(4, 2 * k).embed(8)
    columns = tuple(zip(*mat))
    ok = all(
        dot(mat[i], columns[j]) == (want if i == j else zero)
        for i in range(3)
        for j in range(3)
    )
    return PsiMatrixReport(k, symmetric, ok, (2 * k) % 4)
