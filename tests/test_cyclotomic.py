import math
import random
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import numeric_value
from modgal.cyclotomic import (
    ConductorMismatch,
    CycNum,
    _Field,
    _field,
    cyclotomic_polynomial,
    divisors,
    dot,
    euler_phi,
    root_of_unity,
    root_of_unity_order,
    sign_of_real,
    unit_group_generators,
    units_mod,
)
from modgal.modular_data import MAX_CONDUCTOR


def zeta(n, k=1):
    return root_of_unity(n, k)


class TestRootOfUnity:
    def test_fourth_root_squared(self):
        assert zeta(4, 2) == -1

    def test_trivial_field(self):
        assert zeta(1, 0) == 1

    def test_exponent_reduced_mod_n(self):
        assert zeta(5, 7) == zeta(5, 2)

    def test_golden_ratio_relation(self):
        # u = 1 + z5 + z5^4 satisfies u^2 = u + 1: expanding the square
        # gives 3 + 2 z + z^2 + z^3 + 2 z^4, and z^2 + z^3 = -1 - z - z^4
        # mod Phi_5, leaving 2 + z + z^4 = u + 1
        u = 1 + zeta(5) + zeta(5, 4)
        assert u * u == u + 1


class TestArithmetic:
    def test_primitive_cube_roots_sum(self):
        assert zeta(3, 1) + zeta(3, 2) == -1

    def test_multiply_by_zero(self):
        u = 1 + zeta(5) + zeta(5, 4)
        assert u * CycNum.zero(5) == 0

    def test_golden_conjugate_product(self):
        # (1+sqrt(5))/2 * (1-sqrt(5))/2 = (1-5)/4 = -1
        u = 1 + zeta(5) + zeta(5, 4)
        v = 1 + zeta(5, 2) + zeta(5, 3)
        assert u * v == -1

    def test_conductor_mismatch_raises(self):
        with pytest.raises(ConductorMismatch):
            zeta(3) + zeta(5)

    def test_dot_conductor_mismatch_raises(self):
        with pytest.raises(ConductorMismatch):
            dot([zeta(3), zeta(3)], [zeta(3), zeta(6)])

    def test_dot_unequal_lengths_raise(self):
        with pytest.raises(ValueError):
            dot([zeta(5), zeta(5)], [zeta(5)])

    def test_scalar_coercion(self):
        assert Fraction(1, 2) * zeta(8) + zeta(8) == Fraction(3, 2) * zeta(8)


class TestInverse:
    def test_rational(self):
        assert CycNum.rational(2, 5).inverse() == Fraction(1, 2)

    def test_root_inverse(self):
        for n, k in [(7, 3), (12, 5), (16, 9)]:
            assert zeta(n, k).inverse() == zeta(n, -k % n)

    def test_golden_inverse(self):
        # u^2 = u + 1 means u(u - 1) = 1
        u = 1 + zeta(5) + zeta(5, 4)
        assert u.inverse() == u - 1
        assert u * u.inverse() == 1

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            CycNum.zero(7).inverse()

    @pytest.mark.parametrize("n", [55, 65, 112])
    def test_dense_inverse(self, n):
        rng = random.Random(n)
        for _ in range(2):
            a = CycNum(
                n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(euler_phi(n))]
            )
            assert a * a.inverse() == 1


class TestGalois:
    def test_exponent_map(self):
        a = zeta(5) + zeta(5, 4)
        assert a.galois_apply(2) == zeta(5, 2) + zeta(5, 3)

    def test_identity(self):
        a = Fraction(2, 3) + zeta(9, 2)
        assert a.galois_apply(1) == a

    def test_rationals_fixed(self):
        r = CycNum.rational(Fraction(-7, 3), 12)
        for k in units_mod(12):
            assert r.galois_apply(k) == r

    @pytest.mark.parametrize(
        "n,k", [(9, 1), (9, 10), (9, -8), (1, 1), (1, -1), (2, 1), (2, -1), (12, -5), (35, -1)]
    )
    def test_matches_reference_at_every_unit_class(self, n, k):
        # k = 1 (mod n), the conductors 1 and 2, and negative units
        rng = random.Random(100 * n + k)
        a = CycNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(euler_phi(n))])
        image = a.galois_apply(k)
        assert image.coeffs == _reference_galois(n, a.coeffs, k)
        _assert_canonical(image)

    def test_non_unit_raises(self):
        with pytest.raises(ValueError):
            zeta(6).galois_apply(2)

    def test_conjugate(self):
        assert zeta(8).conjugate() == zeta(8, 7)
        assert (1 + zeta(5) + zeta(5, 4)).conjugate() == 1 + zeta(5) + zeta(5, 4)
        assert zeta(4).conjugate() == -zeta(4)


class TestEmbed:
    def test_root_embedding(self):
        assert zeta(3).embed(6) == zeta(6, 2)

    def test_rational_unchanged(self):
        r = CycNum.rational(Fraction(3, 7), 4)
        assert r.embed(8).is_rational
        assert r.embed(8).as_rational() == Fraction(3, 7)

    def test_non_divisor_raises(self):
        with pytest.raises(ValueError):
            zeta(5).embed(12)


class TestPredicates:
    def test_integer(self):
        assert CycNum.rational(-3, 7).is_rational_integer

    def test_half_not_integer(self):
        assert not CycNum.rational(Fraction(1, 2), 7).is_rational_integer

    def test_irrational_sum(self):
        # canonical form of z5 + z5^4 has positive degree
        a = zeta(5) + zeta(5, 4)
        assert not a.is_rational_integer
        assert not a.is_rational


class TestSign:
    def test_zero(self):
        assert sign_of_real(CycNum.zero(5)) == 0

    def test_golden_positive(self):
        assert sign_of_real(1 + zeta(5) + zeta(5, 4)) == 1

    def test_negative(self):
        assert sign_of_real(zeta(5, 2) + zeta(5, 3)) == -1

    def test_tiny_values_certified(self):
        # 2 cos(48 pi / 97) ~ 0.032, close to zero but not tiny
        a = zeta(97, 24) + zeta(97, 73)
        assert sign_of_real(a) == 1

    @pytest.mark.parametrize("n,sign", [(100, 1), (101, -1)])
    def test_precision_doubles(self, n, sign):
        # phi' = 1 + z5^2 + z5^3 = (1 - sqrt 5) / 2 has phi'^2 = phi' + 1,
        # so phi'^n = F_n phi' + F_(n-1); |phi'^100| ~ 1e-21 is certified
        # only at 256 bits, two doublings past the start
        fib = [0, 1]
        while len(fib) <= n:
            fib.append(fib[-1] + fib[-2])
        golden = 1 + zeta(5, 2) + zeta(5, 3)
        a = fib[n] * golden + fib[n - 1]
        assert a == golden ** n
        assert sign_of_real(a) == sign

    @pytest.mark.parametrize("n", [5, 97, 715, 1021])
    @pytest.mark.parametrize("prec", [64, 128])
    def test_cosine_table_bound(self, n, prec):
        # |cos(2 pi j / n) 2^prec - K_j| <= 1, checked at 4 prec bits
        table = _field(n).cosines(prec)
        assert len(table) == euler_phi(n)
        with mpmath.workprec(4 * prec):
            scale = mpmath.ldexp(1, prec)
            for j, k in enumerate(table):
                assert abs(mpmath.cos(2 * mpmath.pi * j / n) * scale - k) <= 1, j

    @pytest.mark.parametrize("prec", [64, 128])
    def test_cosine_table_bound_at_every_conductor(self, prec):
        # ``cosines`` reads n, phi and its memo alone; a stand-in with
        # those spares building each field's reduction tables
        for n in range(1, MAX_CONDUCTOR + 1):
            field = types.SimpleNamespace(n=n, phi=euler_phi(n), _cosines={})
            assert _far_from_reference(_Field.cosines(field, prec), n, prec) == [], n

    # n = 1021 at 16,384 bits takes about 12 s to build (510 cosines)
    @pytest.mark.parametrize(
        "n,prec", [(5, 4096), (7, 4096), (16, 4096), (1021, 4096), (5, 16384), (7, 16384), (16, 16384)]
    )
    def test_cosine_table_bound_at_high_precision(self, n, prec):
        assert _far_from_reference(_field(n).cosines(prec), n, prec) == []

    def test_non_real_raises(self):
        with pytest.raises(ValueError):
            sign_of_real(zeta(5))


def _reference_cosines(n: int, count: int, w: int) -> list[int]:
    """cos(2 pi j / n) 2^w for 0 <= j < count, each within 3j + 1 of
    the exact value: mpmath rounds cos and sin of 2 pi / n at w + 32
    bits to ints, and each step rotates (c, s) by that angle with one
    floor per coordinate, which adds at most 3 to the error."""
    with mpmath.workprec(w + 32):
        angle = 2 * mpmath.pi / n
        c1, s1 = (int(mpmath.nint(mpmath.ldexp(f(angle), w))) for f in (mpmath.cos, mpmath.sin))
    c, s, out = 1 << w, 0, []
    for _ in range(count):
        out.append(c)
        c, s = (c * c1 - s * s1) >> w, (s * c1 + c * s1) >> w
    return out


def _far_from_reference(table, n: int, prec: int) -> list[int]:
    """The j at which K_j is not proved within 1 of cos(2 pi j / n)
    2^prec: the reference at prec + 64 bits is within 3 * 1024 + 1 <
    2^12 of its exact value for j < 1024, so |K_j 2^64 - ref_j| <= 2^64
    - 2^12 proves the bound."""
    assert len(table) == euler_phi(n) < 1 << 10
    ref = _reference_cosines(n, len(table), prec + 64)
    return [j for j, (k, r) in enumerate(zip(table, ref)) if abs((k << 64) - r) > (1 << 64) - (1 << 12)]


class TestRootOrder:
    @pytest.mark.parametrize(
        "value,order",
        [
            (CycNum.rational(-1, 4), 2),
            (zeta(16, 3), 16),
            (zeta(12, 8), 3),
            (CycNum.one(9), 1),
        ],
    )
    def test_orders(self, value, order):
        assert root_of_unity_order(value) == order

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 16, 35, 143])
    def test_every_power(self, n):
        for k in range(-n, 2 * n):
            value = root_of_unity(n, k)
            assert value == CycNum.from_terms(n, [(1, k)]), k
            assert root_of_unity_order(value) == n // math.gcd(n, k), k

    def test_non_root(self):
        assert root_of_unity_order(CycNum.rational(2, 4)) is None
        assert root_of_unity_order(1 + zeta(5) + zeta(5, 4)) is None


class TestCyclotomicPolynomials:
    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_degree_and_product(self, n):
        poly = cyclotomic_polynomial(n)
        assert len(poly) - 1 == euler_phi(n)
        # prod over d | n of Phi_d = x^n - 1
        prod = [1]
        for d in divisors(n):
            q = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(q) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(q):
                    out[i + j] += a * b
            prod = out
        want = [0] * (n + 1)
        want[0], want[n] = -1, 1
        assert prod == want


class TestUnitGroups:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 15, 16, 24, 35, 120, 128])
    def test_generators_generate(self, n):
        gens = unit_group_generators(n)
        seen = {1 % n}
        frontier = [1 % n]
        while frontier:
            nxt = []
            for k in frontier:
                for g in gens:
                    kk = (k * g) % n
                    if kk not in seen:
                        seen.add(kk)
                        nxt.append(kk)
            frontier = nxt
        assert seen == set(units_mod(n))


# -- randomized algebra laws --------------------------------------------------

_CONDUCTORS = [3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24]


@st.composite
def cyc_numbers(draw, conductor=None):
    n = conductor if conductor is not None else draw(st.sampled_from(_CONDUCTORS))
    phi = euler_phi(n)
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=phi,
            max_size=phi,
        )
    )
    return CycNum(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_galois_is_ring_homomorphism(data):
    n = data.draw(st.sampled_from(_CONDUCTORS))
    a = data.draw(cyc_numbers(conductor=n))
    b = data.draw(cyc_numbers(conductor=n))
    k = data.draw(st.sampled_from(units_mod(n)))
    assert (a + b).galois_apply(k) == a.galois_apply(k) + b.galois_apply(k)
    assert (a * b).galois_apply(k) == a.galois_apply(k) * b.galois_apply(k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_embed_is_ring_homomorphism(data):
    n = data.draw(st.sampled_from(_CONDUCTORS))
    a = data.draw(cyc_numbers(conductor=n))
    b = data.draw(cyc_numbers(conductor=n))
    assert a.embed(n) == a
    for m in (n, 2 * n, 3 * n):
        assert (a + b).embed(m) == a.embed(m) + b.embed(m)
        assert (a * b).embed(m) == a.embed(m) * b.embed(m)
        assert zeta(n).embed(m) == zeta(m, m // n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_galois_composition(data):
    n = data.draw(st.sampled_from(_CONDUCTORS))
    a = data.draw(cyc_numbers(conductor=n))
    j = data.draw(st.sampled_from(units_mod(n)))
    k = data.draw(st.sampled_from(units_mod(n)))
    assert a.galois_apply(j).galois_apply(k) == a.galois_apply((j * k) % n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inverse_involution(data):
    a = data.draw(cyc_numbers())
    if not a.is_zero:
        inv = a.inverse()
        assert a * inv == 1
        assert inv.inverse() == a


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_form_idempotent(data):
    a = data.draw(cyc_numbers())
    again = CycNum(a.conductor, a.coeffs)
    assert again == a
    rebuilt = CycNum.from_terms(
        a.conductor, ((c, i) for i, c in enumerate(a.coeffs))
    )
    assert rebuilt == a


# -- differential tests against a schoolbook Fraction reference ---------------

_DIFF_CONDUCTORS = [1, 2, 3, 12, 35, 112]


def _reference_mul(n, fa, fb):
    """Product of coefficient vectors: each zeta^(i+j) is reduced through
    the rows of x^e mod Phi_n, all in Fraction arithmetic."""
    rows = _field(n).rows
    out = [Fraction(0)] * len(fa)
    for i, a in enumerate(fa):
        for j, b in enumerate(fb):
            for k, r in enumerate(rows[i + j]):
                if r:
                    out[k] += a * b * r
    return tuple(out)


def _reference_galois(n, fa, k):
    rows = _field(n).rows
    out = [Fraction(0)] * len(fa)
    for i, a in enumerate(fa):
        for j, r in enumerate(rows[i * k % n]):
            if r:
                out[j] += a * r
    return tuple(out)


def _assert_canonical(a):
    assert a.den >= 1
    assert math.gcd(a.den, *a.num) == 1
    assert all(type(c) is int for c in a.num)


_coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=720),
)


@st.composite
def sparse_cyc_numbers(draw, conductor):
    phi = euler_phi(conductor)
    return CycNum(conductor, draw(st.lists(_coefficient, min_size=phi, max_size=phi)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_matches_fraction_reference(data):
    n = data.draw(st.sampled_from(_DIFF_CONDUCTORS))
    a = data.draw(sparse_cyc_numbers(n))
    b = data.draw(sparse_cyc_numbers(n))
    k = data.draw(st.sampled_from(units_mod(n)))
    product = a * b
    assert product.coeffs == _reference_mul(n, a.coeffs, b.coeffs)
    image = a.galois_apply(k)
    assert image.coeffs == _reference_galois(n, a.coeffs, k)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
    for value in (a, b, product, image, a + b, a - b, -a, a.embed(2 * n)):
        _assert_canonical(value)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dot_matches_fraction_reference(data):
    n = data.draw(st.sampled_from(_DIFF_CONDUCTORS))
    size = data.draw(st.integers(min_value=1, max_value=5))
    xs = [data.draw(sparse_cyc_numbers(n)) for _ in range(size)]
    ys = [data.draw(sparse_cyc_numbers(n)) for _ in range(size)]
    want = [Fraction(0)] * euler_phi(n)
    for x, y in zip(xs, ys):
        want = [w + c for w, c in zip(want, _reference_mul(n, x.coeffs, y.coeffs))]
    total = dot(xs, ys)
    assert total.coeffs == tuple(want)
    _assert_canonical(total)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equal_values_hash_equal(data):
    n = data.draw(st.sampled_from(_DIFF_CONDUCTORS))
    a, b, c = (data.draw(sparse_cyc_numbers(n)) for _ in range(3))
    left, right = (a * b) * c, a * (b * c)
    assert left == right and hash(left) == hash(right)
    back = a + b - b
    assert back == a and hash(back) == hash(a)
    _assert_canonical(back)
    rebuilt = CycNum.from_terms(n, ((x, i) for i, x in enumerate(a.coeffs)))
    assert rebuilt == a and hash(rebuilt) == hash(a)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sign_matches_numeric_value(data):
    n = data.draw(st.sampled_from(_DIFF_CONDUCTORS))
    x = data.draw(sparse_cyc_numbers(n))
    real = x + x.conjugate()
    value = numeric_value(real).real
    if abs(value) > 1e-6:
        assert sign_of_real(real) == (1 if value > 0 else -1)
    if real.is_zero:
        assert sign_of_real(real) == 0
