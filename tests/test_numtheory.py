"""The number-theory helpers against brute force."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgal._numtheory import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    permutation_orbits,
)

N = range(1, 2001)


def _brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_factorize_against_brute_force():
    for n in N:
        pairs = factorize(n)
        assert math.prod(p**e for p, e in pairs) == n
        assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
        assert all(len(_brute_divisors(p)) == 2 and e >= 1 for p, e in pairs)


def test_is_prime_against_brute_force():
    for n in range(-3, 2001):
        assert is_prime(n) == (n >= 2 and _brute_divisors(n) == [1, n])


def test_euler_phi_and_divisors_against_brute_force():
    for n in N:
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert divisors(n) == _brute_divisors(n)


def test_factorize_edges():
    assert factorize(1) == []
    for fn in (factorize, euler_phi, divisors):
        for n in (0, -1, -12):
            with pytest.raises(ValueError):
                fn(n)


def _brute_orbits(size, images):
    orbits = set()
    for start in range(size):
        orbit = {start}
        grew = True
        while grew:
            new = {image[i] for image in images for i in orbit} - orbit
            orbit |= new
            grew = bool(new)
        orbits.add(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(st.permutations(range(size)), min_size=0, max_size=3),
        )
    )
)
def test_permutation_orbits_is_the_closure(case):
    size, images = case
    assert permutation_orbits(size, images) == _brute_orbits(size, images)
