"""Integer number theory: factorization, primality, Euler's phi,
divisors, the unit group (Z/nZ)^x, and the orbits of the permutations
that a set of generators induces.

Every other module takes these facts from here; ``cyclotomic``
re-exports the public names it has always exported.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "divisors",
    "divisors_of",
    "euler_phi",
    "factorize",
    "is_prime",
    "permutation_orbits",
    "trial_factor",
    "unit_group_generators",
    "units_mod",
]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, e) pairs, p ascending;
    [] for n = 1."""
    return trial_factor(n, n)[0]


def trial_factor(n: int, limit: int) -> tuple[list[tuple[int, int]], int]:
    """Divide the primes p <= limit out of n >= 1.  Returns their (p, e)
    pairs, p ascending, and the cofactor, which has no prime factor
    <= limit; trial division stops at min(limit, sqrt(cofactor))."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out = []
    p = 2
    while p <= limit and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if 1 < n <= limit:
        # no factor up to sqrt(n) is left, so n is prime
        out.append((n, 1))
        n = 1
    return out, n


def is_prime(n: int) -> bool:
    """Trial division, stopping at the first factor."""
    if n < 4:
        return n >= 2
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, sorted ascending."""
    return divisors_of(factorize(n))


def divisors_of(factors) -> list[int]:
    """All positive divisors, sorted ascending, of the number with the
    given (p, e) factorization."""
    out = [1]
    for p, e in factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@functools.lru_cache(maxsize=None)
def units_mod(n: int) -> tuple[int, ...]:
    """Canonical residues of (Z/nZ)^x; (0,) for n = 1."""
    if n == 1:
        return (0,)
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)


def _primitive_root(q: int, p: int) -> int:
    # q = p^a with p odd: the least generator of the cyclic group (Z/qZ)^x
    phi = q // p * (p - 1)
    primes = [f for f, _ in factorize(phi)]
    return next(
        g for g in range(2, q) if g % p and all(pow(g, phi // f, q) != 1 for f in primes)
    )


@functools.lru_cache(maxsize=None)
def unit_group_generators(n: int) -> tuple[int, ...]:
    """A generating set of (Z/nZ)^x, via CRT over the prime powers of n."""
    if n <= 2:
        return ()
    gens = []
    for p, a in factorize(n):
        q = p**a
        rest = n // q
        local: list[int]
        if p == 2:
            if a == 1:
                local = []
            elif a == 2:
                local = [3]
            else:
                local = [q - 1, 5]
        else:
            local = [_primitive_root(q, p)]
        for g in local:
            # x = g mod q, x = 1 mod rest (when rest is 1, pow gives 0
            # and x = g mod n)
            inv = pow(q % rest, -1, rest)
            gens.append((g + q * ((1 - g) * inv % rest)) % n)
    return tuple(gens)


def permutation_orbits(size: int, images) -> tuple[tuple[int, ...], ...]:
    """Orbits of {0, ..., size - 1} under the group generated by the
    given permutations, each a sequence with i -> images[g][i].  Every
    orbit is sorted and the orbits are ordered by their least member.

    The orbits under the generated group equal the closures under the
    generators only because each image list is a permutation."""
    images = tuple(images)
    seen = [False] * size
    orbits = []
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for i in orbit:  # the list grows while it is walked
            for image in images:
                j = image[i]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)
