"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored on the power basis {zeta_N^i : 0 <= i < phi(N)}
after reduction modulo the N-th cyclotomic polynomial Phi_N, with
arbitrary-precision rational coefficients.  The representation is
canonical: two elements with the same conductor are equal exactly when
their coefficient vectors are equal.

Conductors never mix implicitly.  An element of Q(zeta_N) is moved into
a larger field Q(zeta_M), N | M, with :meth:`CycNum.embed`; binary
operations on mismatched conductors raise ``ConductorMismatch``.

The automorphism sigma_k : zeta_N -> zeta_N^k (gcd(k, N) = 1) is applied
with :meth:`CycNum.galois_apply`; complex conjugation is sigma_{-1}.

Sign decisions for real elements are certified, never epsilon-based: an
exact symbolic zero test runs first, then the element is evaluated at
zeta_N = exp(2*pi*i/N) in interval arithmetic, doubling the working
precision until the enclosure excludes zero.

Phi_N is computed by iterated exact division of x^N - 1 by Phi_d over
the proper divisors d and memoized per process (thread-safe: the memo
is an initialize-once cache and all values are immutable).

The integer number theory (``divisors``, ``euler_phi``, ``units_mod``,
``unit_group_generators``) lives in ``modgal._numtheory`` and is
re-exported here.
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction

import mpmath

from ._numtheory import divisors, euler_phi, unit_group_generators, units_mod

__all__ = [
    "ConductorMismatch",
    "CycNum",
    "cyclotomic_polynomial",
    "divisors",
    "euler_phi",
    "reduce_conductor",
    "root_of_unity",
    "root_of_unity_order",
    "sign_of_real",
    "unit_group_generators",
    "units_mod",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConductorMismatch(ValueError):
    """Binary operation on elements of different ambient fields."""


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact long division of integer polynomials; den is monic here
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q = c // den[dn]
        assert q * den[dn] == c, "division is not exact"
        out[i - dn] = q
        for j, dj in enumerate(den):
            num[i - dn + j] -= q * dj
    assert not any(num), "division left a remainder"
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, leading coefficient 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class _Field:
    """Reduction tables for one conductor, built once and shared."""

    __slots__ = ("n", "phi", "poly", "rows", "_monomials")

    def __init__(self, n: int):
        self.n = n
        self.poly = cyclotomic_polynomial(n)
        self.phi = len(self.poly) - 1
        phi = self.phi
        hi = max(n, 2 * phi - 1)
        # rows[e] = coefficients of x^e mod Phi_n (integers)
        rows: list[tuple[int, ...]] = []
        for e in range(phi):
            row = [0] * phi
            row[e] = 1
            rows.append(tuple(row))
        cur = list(rows[phi - 1]) if phi > 0 else []
        for _ in range(phi, hi):
            top = cur[phi - 1]
            nxt = [0] + cur[:-1]
            if top:
                for i in range(phi):
                    nxt[i] -= top * self.poly[i]
            rows.append(tuple(nxt))
            cur = nxt
        self.rows = tuple(rows)
        self._monomials: dict[tuple[int, ...], int] | None = None

    def monomials(self) -> dict[tuple[int, ...], int]:
        if self._monomials is None:
            self._monomials = {self.rows[k]: k for k in range(self.n - 1, -1, -1)}
        return self._monomials


@functools.lru_cache(maxsize=None)
def _field(n: int) -> _Field:
    return _Field(n)


class CycNum:
    """An element of Q(zeta_N) in canonical reduced form.

    Immutable; all operations return new values.  Scalars (int,
    Fraction) coerce into the same conductor, other CycNum operands must
    carry an equal conductor.
    """

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs) -> None:
        field = _field(conductor)
        vec = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(vec) != field.phi:
            raise ValueError(
                f"need {field.phi} coefficients for conductor {conductor}, got {len(vec)}"
            )
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", vec)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, conductor: int) -> "CycNum":
        return cls.rational(0, conductor)

    @classmethod
    def one(cls, conductor: int) -> "CycNum":
        return cls.rational(1, conductor)

    @classmethod
    def rational(cls, value, conductor: int) -> "CycNum":
        field = _field(conductor)
        vec = [_ZERO] * field.phi
        vec[0] = Fraction(value)
        return cls(conductor, vec)

    @classmethod
    def from_terms(cls, conductor: int, terms) -> "CycNum":
        """Sum of (coefficient, exponent) terms c * zeta_N^e, e arbitrary."""
        field = _field(conductor)
        acc = [_ZERO] * field.phi
        for coeff, exp in terms:
            c = Fraction(coeff)
            if not c:
                continue
            row = field.rows[exp % conductor]
            for i, ri in enumerate(row):
                if ri:
                    acc[i] += c * ri
        return cls(conductor, acc)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    @property
    def is_rational_integer(self) -> bool:
        return self.is_rational and self.coeffs[0].denominator == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational")
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductors {self.conductor} and {other.conductor}; embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(other, self.conductor)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum(self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum(self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycNum(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        field = _field(self.conductor)
        phi = field.phi
        fa, fb = self.coeffs, other.coeffs
        conv = [_ZERO] * (2 * phi - 1) if phi > 0 else []
        for i, a in enumerate(fa):
            if a:
                for j, b in enumerate(fb):
                    if b:
                        conv[i + j] += a * b
        out = conv[:phi]
        for e in range(phi, 2 * phi - 1):
            c = conv[e]
            if c:
                row = field.rows[e]
                for i, ri in enumerate(row):
                    if ri:
                        out[i] += c * ri
        return CycNum(self.conductor, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = CycNum.one(self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_N (which is irreducible, so any nonzero element is a
        unit of Q[x]/Phi_N)."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational:
            return CycNum.rational(1 / self.coeffs[0], self.conductor)
        field = _field(self.conductor)
        # r0 = Phi_N, r1 = self; track s only for r1's Bezout coefficient
        r0 = [Fraction(c) for c in field.poly]
        r1 = list(self.coeffs)
        s0 = [_ZERO]
        s1 = [_ONE]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = 1 / r1[0]
                vec = [c * inv for c in s1]
                vec += [_ZERO] * (field.phi - len(vec))
                return CycNum(self.conductor, vec[: field.phi])
            q, rem = _frac_poly_divmod(r0, r1)
            new_s = _frac_poly_sub(s0, _frac_poly_mul(q, s1))
            r0, r1 = r1, rem
            s0, s1 = s1, new_s

    # -- Galois structure ----------------------------------------------

    def galois_apply(self, k: int) -> "CycNum":
        """Apply sigma_k : zeta_N -> zeta_N^k; requires gcd(k, N) = 1."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError(f"{k} is not a unit modulo {n}")
        if n <= 2 or k % n == 1:
            return self
        field = _field(n)
        phi = field.phi
        acc = [_ZERO] * phi
        for i, c in enumerate(self.coeffs):
            if c:
                e = (i * k) % n
                if e < phi:
                    acc[e] += c
                else:
                    row = field.rows[e]
                    for j, rj in enumerate(row):
                        if rj:
                            acc[j] += c * rj
        return CycNum(n, acc)

    def conjugate(self) -> "CycNum":
        return self.galois_apply(self.conductor - 1 if self.conductor > 1 else 0)

    def embed(self, conductor: int) -> "CycNum":
        """The same element viewed in Q(zeta_M) for N | M."""
        n = self.conductor
        if conductor % n != 0:
            raise ValueError(f"{n} does not divide {conductor}")
        if conductor == n:
            return self
        step = conductor // n
        return CycNum.from_terms(
            conductor, ((c, i * step) for i, c in enumerate(self.coeffs) if c)
        )

    # -- object protocol -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycNum):
            return self.conductor == other.conductor and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.conductor, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.is_rational:
            return f"CycNum({self.coeffs[0]!s}, N={self.conductor})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ("+" if parts else "")
                parts.append(f"{sign}{mag}z^{i}")
        return f"CycNum({''.join(parts)}, N={self.conductor})"


def root_of_unity(conductor: int, k: int) -> CycNum:
    """zeta_N^k in canonical form."""
    if conductor < 1:
        raise ValueError("conductor must be positive")
    return CycNum.from_terms(conductor, [(1, k)])


def root_of_unity_order(a: CycNum) -> int | None:
    """If a = zeta_N^k for some k, the multiplicative order N/gcd(N, k);
    otherwise None."""
    if any(c.denominator != 1 for c in a.coeffs):
        return None
    field = _field(a.conductor)
    k = field.monomials().get(a.coeffs)
    if k is None:
        return None
    return a.conductor // math.gcd(a.conductor, k)


_PREC_ENV = "MODGAL_PRECISION"
_PREC_CAP = 1 << 16


def sign_of_real(a: CycNum) -> int:
    """Certified sign of a real element: -1, 0 or +1.

    Exact zero is decided symbolically (canonical form), so the numeric
    stage only ever certifies a nonzero sign and must terminate.
    """
    if a.is_zero:
        return 0
    if a.conjugate() != a:
        raise ValueError("element is not real")
    if a.is_rational:
        return 1 if a.coeffs[0] > 0 else -1
    n = a.conductor
    prec = int(os.environ.get(_PREC_ENV, "64"))
    iv = mpmath.iv
    while prec <= _PREC_CAP:
        saved = iv.prec
        try:
            iv.prec = prec
            two_pi = 2 * iv.pi
            total = iv.mpf(0)
            for j, c in enumerate(a.coeffs):
                if c:
                    q = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                    total += q * iv.cos(two_pi * j / n)
            if total > 0:
                return 1
            if total < 0:
                return -1
        finally:
            iv.prec = saved
        prec *= 2
    raise ArithmeticError(f"sign not certified below {_PREC_CAP} bits: {a!r}")


def numeric_value(a: CycNum, dps: int = 30) -> complex:
    """Floating approximation of a at zeta_N = exp(2*pi*i/N)."""
    with mpmath.workdps(dps):
        z = mpmath.mpc(0)
        for j, c in enumerate(a.coeffs):
            if c:
                z += mpmath.mpf(c.numerator) / c.denominator * mpmath.exp(
                    2j * mpmath.pi * j / a.conductor
                )
        return complex(z)


# -- minimal conductor ---------------------------------------------------


def reduce_conductor(a: CycNum) -> CycNum:
    """Rewrite a over the smallest conductor M | N that contains it."""
    n = a.conductor
    for m in divisors(n):
        if m == n:
            return a
        fixing = [k for k in units_mod(n) if k % m == 1 % max(m, 1)]
        if all(a.galois_apply(k) == a for k in fixing):
            return _restrict(a, m)
    return a


def _restrict(a: CycNum, m: int) -> CycNum:
    n = a.conductor
    basis = [root_of_unity(m, j).embed(n) for j in range(_field(m).phi)]
    # solve sum_j x_j * basis[j] = a by Gaussian elimination over Q
    rows = len(a.coeffs)
    cols = len(basis)
    mat = [[basis[j].coeffs[i] for j in range(cols)] + [a.coeffs[i]] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [vi - f * vr for vi, vr in zip(mat[i], mat[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, rows):
        if not any(mat[i][:cols]) and mat[i][cols]:
            raise ValueError("element does not lie in the smaller field")
    sol = [_ZERO] * cols
    for idx, c in enumerate(piv_cols):
        sol[c] = mat[idx][cols]
    out = CycNum(m, sol)
    if out.embed(n) != a:
        raise ValueError("element does not lie in the smaller field")
    return out


# -- polynomial helpers over Fraction ------------------------------------


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn = len(den) - 1
    lead = den[dn]
    q = [_ZERO] * max(len(num) - dn, 1)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            f = c / lead
            q[i - dn] = f
            for j, dj in enumerate(den):
                num[i - dn + j] -= f * dj
    return q, num[:dn]


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    la, lb = len(a), len(b)
    return [
        (a[i] if i < la else _ZERO) - (b[i] if i < lb else _ZERO)
        for i in range(max(la, lb))
    ]
