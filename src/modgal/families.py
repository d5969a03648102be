"""Exact builders for the named families and fixture catalog.

Builders return validated-by-construction modular data; the test suite
runs the full contract (unitarity, fusion integrality, twist
consistency) over every catalog entry.  Matrices quoted from printed
sources are transcribed as exact term lists, never floating point.

Twist conventions: where a family admits several consistent twist
assignments, the variants are enumerated rather than canonicalized
(``fibonacci`` has four, ``ising`` eight).  The Fibonacci variants and
those of ``sl2_level_adjoint`` are the Galois conjugates of one datum,
built by ``galois_conjugate_data``.  Only four of the Ising variants
are conjugates of ``ising(0)``, since sigma_k with k != +-1 (mod 8)
sends sqrt(2) to -sqrt(2), so ``ising`` writes each variant out.  For
the two transcribed matrices whose twists are not printed
(``so5_3half_ad``, ``sl2_12_A0``), the frozen exponent vectors solve
the modular relation (st)^3 = p+ s^2, p+ = sum_a d_a^2 theta_a.  For
``so5_3half_ad`` a search over every twist vector at N = 9 finds
exactly two, (0, 3, 6, 4, 1, 7), frozen here, and its complex
conjugate (0, 6, 3, 5, 8, 2); the test suite repeats the search.
"""

from __future__ import annotations

from ._numtheory import is_prime
from .cyclotomic import CycNum, root_of_unity
from .galois_action import galois_conjugate_data
from .modular_data import ModularData, deligne_product
from .pointed import FiniteAbelianGroup, build_pointed

__all__ = [
    "catalog",
    "fibonacci",
    "fixture",
    "fixture_names",
    "ising",
    "sl2_level_adjoint",
]


def fibonacci(variant: int = 0) -> ModularData:
    """Rank-2 data with nontrivial dimension (1 +- sqrt(5))/2: the
    golden datum, dimension (1 + sqrt(5))/2 = 1 + z5 + z5^4 and twist
    zeta_5^2, conjugated by sigma_k for k = (1, 4, 3, 2)[variant].  The
    twists are zeta_5^(2, 3, 1, 4); sigma_4 is complex conjugation and
    fixes sqrt(5), while sigma_3 and sigma_2 negate it."""
    u = CycNum.from_terms(5, [(1, 0), (1, 1), (1, 4)])
    one = CycNum.one(5)
    golden = ModularData(5, 2, ("1", "t"), ((one, u), (u, -one)), (0, 2))
    return galois_conjugate_data(golden, (1, 4, 3, 2)[variant])


def ising(variant: int = 0) -> ModularData:
    """Rank-3 data with a dim^2 = 2 object; conductor 16.  The eight
    variants are the odd twist exponents of the middle object."""
    if not 0 <= variant < 8:
        raise ValueError("ising has eight variants")
    d = root_of_unity(16, 2) + root_of_unity(16, 14)  # sqrt(2)
    one = CycNum.one(16)
    s = ((one, d, one), (d, CycNum.zero(16), -d), (one, -d, one))
    return ModularData(16, 3, ("1", "s", "f"), s, (0, 2 * variant + 1, 8))


def sl2_level_adjoint(p: int, galois_variant: int = 1) -> ModularData:
    """The transitive family member of rank (p-1)/2 for prime p >= 5.

    s_{m,l} is the quantum integer [(2m+1)(2l+1)] at a primitive 2p-th
    root of unity, written as the balanced power sum
    sum_{i=-(h-1)/2}^{(h-1)/2} zeta_p^i with h = (2m+1)(2l+1); twists
    are zeta_p^{m(m+1)}.  galois_variant k conjugates the data by
    sigma_k (``galois_conjugate_data``, which refuses a k that is not a
    unit modulo p).
    """
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    r = (p - 1) // 2
    s_rows = []
    for m in range(r):
        row = []
        for l in range(r):
            h = (2 * m + 1) * (2 * l + 1)
            half = (h - 1) // 2
            row.append(CycNum.from_terms(p, ((1, i) for i in range(-half, half + 1))))
        s_rows.append(tuple(row))
    t = tuple(m * (m + 1) % p for m in range(r))
    labels = tuple(f"V{2*m}" for m in range(r))
    return galois_conjugate_data(ModularData(p, r, labels, tuple(s_rows), t), galois_variant)


def _fib_x_fib() -> ModularData:
    """Rank-4 product of two golden-dimension factors, ordered so the
    two dimension-u^2 and dimension-u pairs sit as (0,1 | 2,3)."""
    prod = deligne_product(fibonacci(0), fibonacci(0))
    return prod.reordered((0, 3, 1, 2), ("X0", "X1", "X2", "X3"))


def _fib_x_fib_conj() -> ModularData:
    prod = deligne_product(fibonacci(0), fibonacci(2))
    return prod.reordered((0, 3, 2, 1), ("X0", "X1", "X2", "X3"))


def _so5_3half_ad() -> ModularData:
    n = 9
    u = CycNum.from_terms(n, [(1, 1), (-1, 2), (-1, 5)])
    su = u.galois_apply(2)
    ssu = su.galois_apply(2)
    one = CycNum.one(n)
    m1 = -one
    rows = (
        (one, m1, one, u, su, ssu),
        (m1, one, m1, -su, -ssu, -u),
        (one, m1, one, ssu, u, su),
        (u, -su, ssu, one, one, one),
        (su, -ssu, u, one, one, one),
        (ssu, -u, su, one, one, one),
    )
    return ModularData(
        n, 6, tuple(f"X{i}" for i in range(6)), rows, (0, 3, 6, 4, 1, 7)
    )


def _sl2_12_A0() -> ModularData:
    n = 7
    a = CycNum.from_terms(n, [(1, 0), (-1, 4), (-1, 3)])
    b = CycNum.from_terms(n, [(-1, 5), (-2, 4), (-2, 3), (-1, 2)])
    c = CycNum.from_terms(n, [(-1, 3), (-1, 2), (-2, 1), (-1, 0)])
    cbar = c.conjugate()
    one = CycNum.one(n)
    w = one - a + b
    rows = (
        (one, a, b, w, w),
        (a, b, -one, -w, -w),
        (b, -one, -a, w, w),
        (w, -w, w, c, cbar),
        (w, -w, w, cbar, c),
    )
    return ModularData(n, 5, tuple(f"X{i}" for i in range(5)), rows, (0, 1, 3, 6, 6))


def _pointed(*factors: int) -> ModularData:
    return build_pointed(FiniteAbelianGroup(tuple(factors)))


_CATALOG = {
    "fibonacci": lambda: fibonacci(0),
    "fibonacci_conj": lambda: fibonacci(2),
    "fib_x_fib": _fib_x_fib,
    "fib_x_fib_conj": _fib_x_fib_conj,
    "ising": lambda: ising(0),
    "so5_3half_ad": _so5_3half_ad,
    "sl2_12_A0": _sl2_12_A0,
    "sl2_5_ad": lambda: sl2_level_adjoint(5),
    "sl2_7_ad": lambda: sl2_level_adjoint(7),
    "sl2_11_ad": lambda: sl2_level_adjoint(11),
    "sl2_13_ad": lambda: sl2_level_adjoint(13),
    "semion": lambda: _pointed(2),
    "pointed_z3": lambda: _pointed(3),
    "pointed_z4": lambda: _pointed(4),
    "pointed_z5": lambda: _pointed(5),
    "pointed_z2z2": lambda: _pointed(2, 2),
    "trivial": lambda: _pointed(),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def fixture(name: str) -> ModularData:
    try:
        return _CATALOG[name]()
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; choose from {fixture_names()}"
        ) from None


def catalog() -> dict[str, ModularData]:
    return {name: build() for name, build in sorted(_CATALOG.items())}

