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
See :func:`sign_of_real`.  The K_j are computed from Python ints alone,
pi by Machin's formula and each cosine by its Taylor series at a halved
angle followed by doublings, and ``_Field.cosines`` proves the bound.
No floating-point or process-global precision setting is read or
changed.

Phi_N is computed by iterated exact division of x^N - 1 by Phi_d over
the proper divisors d and memoized per process.  This is thread-safe:
the memos (Phi_N, each field's tables and its cosines per precision)
are initialize-once caches whose values are immutable and depend on
their key alone, so a race at worst computes one value twice.

The integer number theory (``divisors``, ``euler_phi``, ``units_mod``,
``unit_group_generators``) lives in ``modgal._numtheory`` and is
re-exported here.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

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
    the fixed-point cosine table the sign oracle sums against: integers
    within 1 of cos(2*pi*j/n) 2^prec, from Python ints alone, kept per
    precision in ``_cosines``.
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

        Only Python ints are used.  Write p = prec, L = p.bit_length(),
        r = 3 + isqrt(p // 2), g = 2r + L + 8, w = p + g and u = 2^-w;
        an error "in ulps" is in units of u.  cos(2*pi*j/n) =
        cos(theta) with theta = 2*pi*m/n, m = min(j, n - j), 2m <= n;
        m = 0 gives K = 2^p exactly, and each m > 0 is computed once.

        pi.  A(x) = ``_atan_inv(x, w)`` sums (-1)^k floor(2^w / ((2k+1)
        x^(2k+1))) over the D terms with floor(2^w / x^(2k+1)) > 0 (the
        nested floors of the loop are one floor: floor(floor(a) / b) =
        floor(a / b) for an int b > 0).  Each term is off by less than
        1, and the dropped tail of the alternating, decreasing series
        atan(1/x) 2^w is below its first term, which is below 1; so A(x)
        is within D + 1 ulps of atan(1/x).  5^(2k+1) > 2^(4k+2), so
        D < w/4 + 1 for x = 5 and for x = 239.  P = 16 A(5) - 4 A(239)
        is then within E = 20 (w/4 + 2) = 5w + 40 ulps of pi (Machin).

        Argument.  X = floor(2mP / (n 2^r)) and x = X u.  As 2m <= n,
        |2^r X - theta 2^w| < 2^r + E, and x <= (pi + E u) / 2^r < 1/2
        since r >= 3 and E u < 1/4 (w >= 16).

        Taylor.  With Y = floor(X^2 u), x^2 - u < Y u <= x^2, the terms
        are t_0 = 2^w and t_i = floor(t_(i-1) Y u / c_i), c_i = (2i-1)
        2i, against the exact T_i = 2^w x^(2i) / (2i)! = T_(i-1) rho_i,
        rho_i = x^2 / c_i < 1/8.  By induction t_i <= T_i, and
        t_i > t_(i-1) rho_i - t_(i-1) u / c_i - 1 >= t_(i-1) rho_i - 3/2,
        as t_(i-1) <= 2^w and c_i >= 2; so e_i = T_i - t_i <
        rho_i e_(i-1) + 3/2 < 12/7 < 2.  Also t_i <= T_i < 2^(w - 2i), so
        the first zero term t_I has I <= w/2 + 1/2, and every later term
        is zero.  C_0 = sum_(i<I) (-1)^i t_i is within sum_(0<i<I) e_i +
        T_I < 2I <= w + 1 ulps of cos(x) 2^w, the tail of the exact
        alternating, decreasing series being below T_I = e_I.  The t_i
        do not increase, so 0 <= C_0 <= 2^w.

        Doublings.  C_(h+1) = floor(2 C_h^2 u) - 2^w follows
        cos(2a) = 2 cos(a)^2 - 1, r times.  By induction |C_h| <= 2^w,
        and with gamma_h = cos(2^h x) and d_h = |C_h u - gamma_h|,
        d_(h+1) <= 2 d_h |C_h u + gamma_h| + u <= 4 d_h + u: the error
        grows 4 times per doubling plus one floor.  So d_r < 4^r (d_0 +
        u/3) < 4^r (w + 2) u, and |cos(2^r x) - cos(theta)| <=
        |2^r x - theta| < (2^r + E) u adds the argument's error.

        Rounding.  K = floor(C_r 2^-g + 1/2) is within 1/2 of C_r 2^-g,
        and 2^r + E + 4^r (w + 2) <= 4^r (6w + 43), so |K - 2^p
        cos(theta)| < 1/2 + 2^(p - w) 4^r (6w + 43) = 1/2 + (6w + 43) /
        2^(L+8).  From isqrt(p // 2) <= p/2, w <= 2p + L + 14 < 2^(L+1)
        + L + 14, and 6w + 43 < 12 2^L + 6L + 127 <= 2^(L+7) for L >= 1,
        so the bound is 1.

        The halvings trade r squarings against about w / (2(r - 2))
        Taylor terms (x < 2^(2-r)), one product each; the two counts meet
        near r - 2 = sqrt(w/2), about sqrt(p/2), hence r.  g pays the 2r
        bits of the doublings and the L + 8 bits of the error sums."""
        found = self._cosines.get(prec)
        if found is None:
            n, r = self.n, 3 + math.isqrt(prec // 2)
            g = 2 * r + prec.bit_length() + 8
            w = prec + g
            one, pi = 1 << w, 16 * _atan_inv(5, w) - 4 * _atan_inv(239, w)
            by_m = {0: 1 << prec}
            for m in {min(j, n - j) for j in range(1, self.phi)}:
                x = 2 * m * pi // (n << r)
                y, c, term, k = x * x >> w, one, one, 0
                while term:  # Taylor: t_i, k = 2i
                    k += 2
                    term = (term * y >> w) // ((k - 1) * k)
                    c += -term if k & 2 else term
                for _ in range(r):  # doublings
                    c = (c * c >> w - 1) - one
                by_m[m] = c + (1 << g - 1) >> g
            found = self._cosines[prec] = tuple(by_m[min(j, n - j)] for j in range(self.phi))
        return found


def _atan_inv(x: int, w: int) -> int:
    """atan(1/x) 2^w within D + 1, the series summed over its D nonzero
    floors (``_Field.cosines``)."""
    total, power, k = 0, (1 << w) // x, 1
    while power:
        term = power // k
        total += term if k % 4 == 1 else -term
        power //= x * x
        k += 2
    return total


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
    int and each term is within |num_j| of num_j cos(2*pi*j/N) 2^prec
    (``_Field.cosines`` proves |K_j - cos(2*pi*j/N) 2^prec| <= 1 for
    its integer-only Machin and Taylor construction, which reads no
    global precision), so |S 2^prec - T| <= slack = sum_j |num_j|.  Hence T > slack proves
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
