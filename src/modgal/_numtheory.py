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
    "euler_phi",
    "factorize",
    "is_prime",
    "permutation_orbits",
    "unit_group_generators",
    "units_mod",
]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, e) pairs, p ascending;
    [] for n = 1."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, sorted ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@functools.lru_cache(maxsize=None)
def units_mod(n: int) -> tuple[int, ...]:
    """Canonical residues of (Z/nZ)^x; (0,) for n = 1."""
    if n == 1:
        return (0,)
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)


def _primitive_root(q: int, p: int) -> int:
    # q = p^a with p odd; a generator of the cyclic group (Z/qZ)^x
    phi_p = p - 1
    prime_parts = [f for f, _ in factorize(phi_p)]
    g = None
    for cand in range(2, p):
        if all(pow(cand, phi_p // f, p) != 1 for f in prime_parts):
            g = cand
            break
    assert g is not None
    if q == p:
        return g
    # lift: g generates mod p^a unless g^(p-1) = 1 mod p^2
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g % q


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
            if rest == 1:
                gens.append(g % n)
            else:
                # x = g mod q, x = 1 mod rest
                inv = pow(q % rest, -1, rest)
                x = (g + q * ((1 - g) * inv % rest)) % n
                gens.append(x)
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
