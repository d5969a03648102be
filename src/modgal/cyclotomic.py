"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored on the power basis {zeta_N^i : 0 <= i < phi(N)}
after reduction modulo the N-th cyclotomic polynomial Phi_N, as a tuple
of Python int numerators ``num`` over one int denominator ``den``.  The
form is canonical: ``den >= 1`` and gcd(den, *num) == 1, so two elements
with the same conductor are equal exactly when their (num, den) are
equal, and hashing hashes that tuple.  Multiplication convolves the
numerators and folds the powers x^e, e >= phi(N), back with the integer
rows of x^e mod Phi_N; addition works over the common denominator.
Each result divides out one gcd.  ``CycNum.coeffs`` gives the same
element as a tuple of reduced Fractions.

A sum of products sum_i x_i * y_i is :func:`dot`: it convolves every
pair into one integer buffer over the common denominator and folds and
divides out the gcd once, with the same loop as a single product.  The
inverse is the product of the other distinct Galois conjugates of a
divided by the rational norm of a from Q(a) (see :meth:`CycNum.inverse`),
so every exact identity in the package runs on this one integer engine.

Conductors never mix implicitly.  An element of Q(zeta_N) is moved into
a larger field Q(zeta_M), N | M, with :meth:`CycNum.embed`; binary
operations on mismatched conductors raise ``ConductorMismatch``.

The automorphism sigma_k : zeta_N -> zeta_N^k (gcd(k, N) = 1) is applied
with :meth:`CycNum.galois_apply`; complex conjugation is sigma_{-1}.
Every map that moves an element sends its terms c_i zeta^i to terms
c_i zeta^(e_i): sigma_k to e_i = i k, the embedding into Q(zeta_M) to
e_i = i M / N, and ``CycNum.from_terms`` takes the exponents as given.
All of them fold those terms onto the power basis in one place,
``_fold_terms``, which reads x^(e mod N) mod Phi_N from the field's
``terms`` table and divides out the one gcd.  :func:`root_of_unity`
needs no fold: zeta_N^k is row k mod N of the same table, already
canonical.

Sign decisions for real elements are certified, never epsilon-based: an
exact symbolic zero test runs first.  A real a = num/den then has the
sign of S = sum_j num_j cos(2*pi*j/N).  Each conductor keeps, per
precision p, integers K_j within 1 of cos(2*pi*j/N) 2^p, so the int
T = sum_j num_j K_j is within sum_j |num_j| of S 2^p; the sign is
certified once |T| exceeds that slack, and p doubles until it does.
See :func:`sign_of_real`.

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
import operator
from fractions import Fraction

import mpmath
from mpmath.libmp import to_fixed

from ._numtheory import divisors, euler_phi, unit_group_generators, units_mod

__all__ = [
    "ConductorMismatch",
    "CycNum",
    "cyclotomic_polynomial",
    "divisors",
    "dot",
    "euler_phi",
    "root_of_unity",
    "root_of_unity_order",
    "sign_of_real",
    "unit_group_generators",
    "units_mod",
]

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
    """Reduction tables for one conductor, built once and shared.

    ``rows[e]`` holds the integer coefficients of x^e mod Phi_n for
    0 <= e < max(n, 2*phi - 1); the rows below n are the distinct roots
    of unity zeta_n^e, which :func:`root_of_unity` returns and
    :func:`root_of_unity_order` looks up.  ``terms[e]`` holds the nonzero
    entries of ``rows[e]`` as (index, coefficient) pairs, which the
    product fold and ``_fold_terms`` loop over.  ``cosines(prec)`` is
    the fixed-point cosine table the sign oracle sums against.
    """

    __slots__ = ("n", "phi", "poly", "rows", "terms", "_cosines")

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
        self.terms = tuple(
            tuple((i, r) for i, r in enumerate(row) if r) for row in self.rows
        )
        self._cosines: dict[int, tuple[int, ...]] = {}

    def cosines(self, prec: int) -> tuple[int, ...]:
        """Integers K_j with |cos(2*pi*j/n) * 2^prec - K_j| <= 1 for
        0 <= j < phi, computed once per precision and kept.

        Each cosine c is enclosed in an interval [lo, hi] at prec + 8
        bits, which is narrower than 2^-prec, so the floors of lo 2^prec
        and hi 2^prec differ by at most 1 (asserted).  With f the first,
        f <= c 2^prec <= hi 2^prec < f + 2, and K = f + 1 is within 1 of
        c 2^prec.  The floors are taken exactly on the raw endpoints
        (``to_fixed``): a detour through a 53-bit float would lose the
        low bits of every K_j beyond prec = 53."""
        found = self._cosines.get(prec)
        if found is None:
            iv = mpmath.iv
            saved = iv.prec
            try:
                iv.prec = prec + 8
                two_pi = 2 * iv.pi
                ends = [iv.cos(two_pi * j / self.n)._mpi_ for j in range(self.phi)]
            finally:
                iv.prec = saved
            floors = [(to_fixed(lo, prec), to_fixed(hi, prec)) for lo, hi in ends]
            assert all(hi - lo <= 1 for lo, hi in floors), "cosine enclosure too wide"
            found = self._cosines[prec] = tuple(lo + 1 for lo, _ in floors)
        return found


@functools.lru_cache(maxsize=None)
def _field(n: int) -> _Field:
    return _Field(n)


_setattr = object.__setattr__


def _as_rational(value) -> Fraction | int:
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


class CycNum:
    """An element of Q(zeta_N) in canonical reduced form.

    Stored as integer numerators ``num`` on the power basis over one
    denominator ``den >= 1`` with gcd(den, *num) == 1, so equal elements
    have equal (conductor, num, den).  Immutable; all operations return
    new values.  Scalars (int, Fraction) coerce into the same conductor,
    other CycNum operands must carry an equal conductor.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs) -> None:
        field = _field(conductor)
        vec = [_as_rational(c) for c in coeffs]
        if len(vec) != field.phi:
            raise ValueError(
                f"need {field.phi} coefficients for conductor {conductor}, got {len(vec)}"
            )
        # with den the lcm of reduced denominators, gcd(den, *num) == 1
        den = math.lcm(*(c.denominator for c in vec))
        num = tuple(c.numerator * (den // c.denominator) for c in vec)
        _setattr(self, "conductor", conductor)
        _setattr(self, "num", num)
        _setattr(self, "den", den)

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
        v = _as_rational(value)
        rest = (0,) * (_field(conductor).phi - 1)
        return _raw(conductor, (v.numerator,) + rest, v.denominator)

    @classmethod
    def from_terms(cls, conductor: int, terms) -> "CycNum":
        """Sum of (coefficient, exponent) terms c * zeta_N^e, e arbitrary."""
        pairs = [(_as_rational(c), exp) for c, exp in terms]
        den = math.lcm(*(c.denominator for c, _ in pairs))
        return _fold_terms(
            conductor, ((c.numerator * (den // c.denominator), exp) for c, exp in pairs), den
        )

    # -- predicates ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients on the power basis as reduced Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    @property
    def is_rational_integer(self) -> bool:
        return self.den == 1 and self.is_rational

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

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
        return _combine(self, other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, operator.sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _raw(self.conductor, tuple(map(operator.neg, self.num)), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum_of_products(self.conductor, ((self.num, other.num, 1),), self.den * other.den)

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
        """Multiplicative inverse through the norm from Q(a).

        Let O = {sigma_k(a)} be the Galois orbit of a, that is, its
        distinct conjugates, and c the product of O without a, so that
        a * c is the product of O.  Each sigma_j permutes O, since
        sigma_j(sigma_k(a)) = sigma_jk(a) and sigma_j is injective, so
        the product is fixed by the whole Galois group and lies in Q: it
        is the norm of a from Q(a).  It is nonzero: a != 0, each sigma_k
        is injective, and a field has no zero divisors.  Hence
        a^-1 = c / (a * c).
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational:
            return CycNum.rational(Fraction(self.den, self.num[0]), self.conductor)
        others = {self.galois_apply(k) for k in units_mod(self.conductor) if k != 1} - {self}
        conjugates = functools.reduce(operator.mul, others)
        norm = (self * conjugates).as_rational()
        return conjugates * (1 / norm)

    # -- Galois structure ----------------------------------------------

    def galois_apply(self, k: int) -> "CycNum":
        """Apply sigma_k : zeta_N -> zeta_N^k; requires gcd(k, N) = 1."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError(f"{k} is not a unit modulo {n}")
        return _fold_terms(n, ((c, i * k) for i, c in enumerate(self.num)), self.den)

    def conjugate(self) -> "CycNum":
        return self.galois_apply(-1)

    def embed(self, conductor: int) -> "CycNum":
        """The same element viewed in Q(zeta_M) for N | M."""
        n = self.conductor
        if conductor % n != 0:
            raise ValueError(f"{n} does not divide {conductor}")
        step = conductor // n
        return _fold_terms(conductor, ((c, i * step) for i, c in enumerate(self.num)), self.den)

    # -- object protocol -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycNum):
            return (
                self.conductor == other.conductor
                and self.den == other.den
                and self.num == other.num
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.is_rational
                and self.num[0] * other.denominator == other.numerator * self.den
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.conductor, self.num, self.den))

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


def _raw(conductor: int, num: tuple[int, ...], den: int) -> CycNum:
    """The element num/den; den > 0 and gcd(den, *num) == 1 already."""
    a = object.__new__(CycNum)
    _setattr(a, "conductor", conductor)
    _setattr(a, "num", num)
    _setattr(a, "den", den)
    return a


def _canonical(conductor: int, num: list[int], den: int) -> CycNum:
    """The element num/den for den > 0, with gcd(den, *num) divided out."""
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return _raw(conductor, tuple(num), den)


def _fold_terms(conductor: int, terms, den: int) -> CycNum:
    """The sum of m * zeta_N^e / den over the (m, e) in ``terms``, for
    int numerators m, any int exponents e and one int den >= 1."""
    field = _field(conductor)
    acc = [0] * field.phi
    for m, exp in terms:
        if m:
            for i, r in field.terms[exp % conductor]:
                acc[i] += m * r
    return _canonical(conductor, acc, den)


def _combine(a: CycNum, b: CycNum, op) -> CycNum:
    """a + b or a - b over the common denominator lcm(a.den, b.den)."""
    da, db = a.den, b.den
    if da == db:
        return _canonical(a.conductor, list(map(op, a.num, b.num)), da)
    den = da // math.gcd(da, db) * db
    fa, fb = den // da, den // db
    return _canonical(a.conductor, [op(x * fa, y * fb) for x, y in zip(a.num, b.num)], den)


def _sum_of_products(conductor: int, pairs, den: int) -> CycNum:
    """(sum of m * x * y over the (x, y, m) in pairs) / den, where x and
    y are numerator tuples and m an int scale: every pair convolves into
    one buffer, which folds through ``_Field.terms`` once."""
    field = _field(conductor)
    phi = field.phi
    conv = [0] * (2 * phi - 1)
    for xs, ys, m in pairs:
        for i, a in enumerate(xs):
            if a:
                a *= m
                for k, b in enumerate(ys, i):
                    if b:
                        conv[k] += a * b
    out = conv[:phi]
    terms = field.terms
    for e in range(phi, 2 * phi - 1):
        c = conv[e]
        if c:
            for i, r in terms[e]:
                out[i] += c * r
    return _canonical(conductor, out, den)


def dot(xs, ys) -> CycNum:
    """The exact sum of xs[i] * ys[i] over CycNums of one conductor.

    All products go over the common denominator lcm(x.den * y.den), so
    the sum is one convolution buffer, one fold and one gcd, however
    many terms it has.
    """
    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != len(ys):
        raise ValueError(f"dot of {len(xs)} by {len(ys)} elements")
    if not xs:
        raise ValueError("dot of no elements has no conductor")
    n = xs[0].conductor
    for v in xs + ys:
        if v.conductor != n:
            raise ConductorMismatch(f"conductors {n} and {v.conductor}; embed first")
    dens = [x.den * y.den for x, y in zip(xs, ys)]
    den = math.lcm(*dens)
    return _sum_of_products(
        n, ((x.num, y.num, den // d) for x, y, d in zip(xs, ys, dens)), den
    )


def root_of_unity(conductor: int, k: int) -> CycNum:
    """zeta_N^k in canonical form: row k mod N of the reduction table."""
    if conductor < 1:
        raise ValueError("conductor must be positive")
    return _raw(conductor, _field(conductor).rows[k % conductor], 1)


def root_of_unity_order(a: CycNum) -> int | None:
    """If a = zeta_N^k for some k, the multiplicative order N/gcd(N, k);
    otherwise None."""
    n = a.conductor
    roots = _field(n).rows[:n]
    if a.den != 1 or a.num not in roots:
        return None
    return n // math.gcd(n, roots.index(a.num))


_PREC_START = 64
_PREC_CAP = 1 << 16


def sign_of_real(a: CycNum) -> int:
    """Certified sign of a real element: -1, 0 or +1.

    Exact zero is decided symbolically first (canonical form), so the
    numeric stage only ever certifies a nonzero sign.  For
    a = (sum_j num_j zeta_N^j) / den with den > 0 and a real,
    a = Re(a) = (sum_j num_j cos(2*pi*j/N)) / den, so a has the sign of
    S = sum_j num_j cos(2*pi*j/N).  With the integers K_j of
    ``_Field.cosines`` at prec bits, T = sum_j num_j K_j is an exact
    int and each term is within |num_j| of num_j cos(2*pi*j/N) 2^prec,
    so |S 2^prec - T| <= slack = sum_j |num_j|.  Hence T > slack proves
    S > 0 and T < -slack proves S < 0; otherwise the precision doubles,
    from ``_PREC_START`` up to ``_PREC_CAP`` = 2^16 bits.

    Every s-entry that ``fp_dims`` signs at a conductor the loader
    accepts, N <= ``MAX_CONDUCTOR`` = 1024, is signed before that cap.
    It lies in Z[zeta_N] (den = 1, ``_table_preconditions``), its
    coefficients are below 2^MAX_ENTRY_BITS = 2^32, as in every
    ``ModularData``, whose construction refuses larger ones, and
    phi(N) <= 1020, so every conjugate has |sigma(a)| <= L < 2^42,
    where L is its l1 norm, and slack <= L.  Its norm is a nonzero
    rational integer, so |a| >= L^-(phi - 1) > 2^-42798, and
    |T| > slack holds once 2^prec |a| > 2 slack, which is below 42,900
    bits < 2^16: the ``ArithmeticError`` below cannot be reached from
    the CLI.
    """
    if a.is_zero:
        return 0
    if a.conjugate() != a:
        raise ValueError("element is not real")
    if a.is_rational:
        return 1 if a.num[0] > 0 else -1
    field = _field(a.conductor)
    slack = sum(map(abs, a.num))
    prec = _PREC_START
    while prec <= _PREC_CAP:
        total = sum(map(operator.mul, a.num, field.cosines(prec)))
        if abs(total) > slack:
            return 1 if total > 0 else -1
        prec *= 2
    raise ArithmeticError(f"sign not certified below {_PREC_CAP} bits: {a!r}")
