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
    trial_factor,
    unit_group_generators,
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


def test_trial_factor_stops_at_the_limit():
    assert trial_factor(2**61 - 1, 50_000) == ([], 2**61 - 1)
    assert trial_factor(12 * 1000003, 1000) == ([(2, 2), (3, 1)], 1000003)
    assert trial_factor(12 * 1000003, 1000003) == ([(2, 2), (3, 1), (1000003, 1)], 1)
    assert trial_factor(50021 * 50023, 50_000) == ([], 50021 * 50023)
    for n in N:
        assert trial_factor(n, n) == (factorize(n), 1)


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


def _order(g, q):
    k, x = 1, g % q
    while x != 1:
        x, k = x * g % q, k + 1
    return k


def test_unit_group_generators_against_brute_force():
    least_root = {}
    for n in N:
        gens = unit_group_generators(n)
        assert all(math.gcd(g, n) == 1 for g in gens), n
        # the products of units are units, so a closure of phi(n)
        # elements is the whole group
        seen = {1 % n}
        frontier = list(seen)
        for k in frontier:  # the list grows while it is walked
            for g in gens:
                if (kk := k * g % n) not in seen:
                    seen.add(kk)
                    frontier.append(kk)
        assert len(seen) == euler_phi(n), n
        # one generator per odd prime power q, the least primitive root
        # mod q, and 1 mod q for the others
        for p, a in factorize(n):
            if p == 2:
                continue
            q = p**a
            if q not in least_root:
                phi = euler_phi(q)
                least_root[q] = next(g for g in range(2, q) if g % p and _order(g, q) == phi)
            assert [g % q for g in gens if g % q != 1] == [least_root[q]], n


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
