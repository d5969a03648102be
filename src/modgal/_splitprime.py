"""Verlinde tables over split primes, certified by exact identities.

For a conductor N, a prime p = 1 (mod N) splits completely in Z[zeta_N]:
with w a primitive N-th root of unity mod p, Phi_N has the phi(N) roots
w^k mod p over the units k mod N, and each root gives a ring
homomorphism Z[zeta_N] -> F_p, zeta_N -> w^k.  These are the *slots*
of p; an element on the power basis maps to sum_i c_i w^(k i) mod p.
Complex conjugation sends slot k to slot -k.

``certified_verlinde`` reads a candidate table in one slot, where it is
one matrix product, and then checks two denominator-free identities in
every slot of enough primes (the argument is in ``certify``).  Residues
are held as float64, so that every matrix product runs in BLAS: they
lie in [0, p) with p - 1 < 2^PRIME_BITS, so a product of two is below
2^42, and every partial sum of at most ``MAX_TERMS`` such products,
and the difference of two such sums, is an integer below 2^53 in size,
which float64 holds exactly.  Every sum here has at most max(r, phi(N))
terms.  The first ``MAX_PRIMES`` primes of
a conductor, their roots and power tables are found once and kept,
like the reduction tables of ``cyclotomic._field``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._numtheory import factorize, is_prime, units_mod

__all__ = ["SplitPrime", "certify", "certified_verlinde", "split_prime", "split_primes"]

PRIME_BITS = 21
MAX_TERMS = 1 << (53 - 2 * PRIME_BITS)

# The split primes ``certified_verlinde`` tries per conductor.  Each is
# above 2^20 for every conductor the loader accepts, so their product
# exceeds 2^160, above the certificate bound of every datum the loader
# accepts (the argument is in ``certified_verlinde``).
MAX_PRIMES = 8

# Elements of the largest array one slot chunk of ``certify`` builds:
# beside the images of s, phi(N) r^2 residues, its memory stays O(r^3)
# however many slots there are.  A chunk is a few matrix products of
# up to 8 MB, large enough that BLAS threads pay for themselves.
_CHUNK = 1 << 20


@dataclass(frozen=True, eq=False)
class SplitPrime:
    """A prime p = 1 (mod n) and its slots.  ``powers[i, j]`` is
    w^(k_j * i) mod p for 0 <= i < phi(n), so slot j sends zeta_n to
    w^(k_j), k_j the j-th unit mod n; slot ``conj[j]`` is its complex
    conjugate, k = -k_j.  Slot 0 is k = 1."""

    p: int
    powers: np.ndarray  # float64
    conj: np.ndarray


def split_prime(n: int, p: int) -> SplitPrime:
    """The slots of a prime p = 1 (mod n)."""
    if p % n != 1 % n or not is_prime(p):
        raise ValueError(f"{p} is not a prime congruent to 1 mod {n}")
    factors = [q for q, _ in factorize(n)]
    for h in range(2, p):
        w = pow(h, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in factors):
            break
    wpow = [1] * n
    for e in range(1, n):
        wpow[e] = wpow[e - 1] * w % p
    units = units_mod(n)
    at = {k: j for j, k in enumerate(units)}
    exps = np.arange(len(units))[:, None] * np.array(units)[None, :] % n
    return SplitPrime(
        p,
        np.array(wpow, dtype=np.float64)[exps],
        np.array([at[-k % n] for k in units]),
    )


@functools.lru_cache(maxsize=None)
def split_primes(n: int, i: int) -> SplitPrime:
    """The i-th largest prime p = 1 (mod n) with p - 1 < 2^PRIME_BITS,
    with its slots."""
    p = split_primes(n, i - 1).p - n if i else 1 + n * (((1 << PRIME_BITS) - 1) // n)
    while not is_prime(p):
        p -= n
        if p <= 1:
            raise ValueError(f"fewer than {i + 1} primes = 1 (mod {n}) are below 2^{PRIME_BITS}")
    return split_prime(n, p)


def _images(num: np.ndarray, prime: SplitPrime, slots=slice(None)) -> np.ndarray:
    """The images of the entries of ``num`` (shape (..., phi)) in the
    given slots, slot axis first, residues in [0, p) as float64."""
    p = prime.p
    flat = (num.reshape(-1, num.shape[-1]) % p).astype(np.float64)
    img = flat @ prime.powers[:, slots] % p
    return img.T.reshape((-1,) + num.shape[:-1])


def _usable(num: np.ndarray, prime: SplitPrime) -> bool:
    """No dimension s_0a and not dim = sum_a s_0a^2 vanishes in a slot
    of this prime, so slot 0 can divide by them."""
    dims = _images(num[0], prime)
    return bool(dims.all() and ((dims * dims % prime.p).sum(axis=1) % prime.p).all())


def _candidate(num: np.ndarray, prime: SplitPrime) -> np.ndarray:
    """N_xy^z = sum_a s_xa s_ya conj(s_za) / (s_0a dim) read in slot 0
    of a usable prime and lifted to (-p/2, p/2]."""
    p = prime.p
    s, cs = _images(num, prime, [0, prime.conj[0]])
    r = s.shape[0]
    d = s[0]
    inv_dim = pow(int((d * d % p).sum() % p), -1, p)
    chi = s * np.array([pow(int(v), -1, p) for v in d], dtype=np.float64) % p
    prods = (chi[:, None, :] * s[None, :, :] % p).reshape(r * r, r)
    table = (prods @ cs.T % p * inv_dim % p).reshape(r, r, r).astype(np.int64)
    return np.where(table > p // 2, table - p, table)


def certificate_bound(num: np.ndarray, table: np.ndarray) -> int:
    """B >= |sigma(y)| for every identity y of ``certify`` and every
    embedding sigma of Q(zeta_N) into C: with L the largest l1 norm of
    an entry's numerators, |sigma(s_xa)| <= L, so the unitarity
    identities are bounded by 2 r L^2 and the Verlinde identity of
    (x, y, a) by L^2 (1 + sum_z |N_xy^z|)."""
    r = table.shape[0]
    l1 = int(np.abs(num).sum(axis=-1).max())
    row_mass = int(np.abs(table).sum(axis=-1).max())
    return l1 * l1 * max(2 * r, 1 + row_mass)


def certify(num: np.ndarray, table: np.ndarray, primes) -> tuple[set, set]:
    """Check s conj(s)^T = dim I and s_xa s_ya = s_0a sum_z N_xy^z s_za
    (x <= y, every a) in every slot of every given prime.

    ``num`` holds the entries of s, which lie in Z[zeta_N], on the power
    basis, shape (r, r, phi); dim = sum_a s_0a^2.  Returns the pairs
    (x, y) where the unitarity identity fails and the pairs x <= y where
    some Verlinde identity of (x, y) fails.

    A nonzero residue proves its identity false.  A residue that is zero
    in every slot proves it true once prod p > B (``certificate_bound``),
    and a prime set that does not exceed B raises ValueError:

    * p splits completely, so (p) is the product of the phi(N) distinct
      primes (p, zeta_N - w^k), and an element y of Z[zeta_N] vanishing
      in every slot lies in each of them, hence in pZ[zeta_N]; over
      coprime primes, y lies in (prod p) Z[zeta_N].
    * If y != 0, y = (prod p) y' with y' != 0 in Z[zeta_N], and
      |Norm(y)| = (prod p)^phi |Norm(y')| >= (prod p)^phi, since the
      norm of a nonzero algebraic integer is a nonzero rational integer.
    * But |Norm(y)| is the product of |sigma_k(y)| over the phi
      embeddings, each at most B, so |Norm(y)| <= B^phi.  prod p > B
      leaves y = 0.
    """
    primes = {prime.p: prime for prime in primes}.values()
    bound = certificate_bound(num, table)
    if math.prod(prime.p for prime in primes) <= bound:
        raise ValueError(f"the primes do not exceed the certificate bound {bound}")
    r = table.shape[0]
    xs, ys = np.array([(x, y) for x in range(r) for y in range(x, r)]).T
    diag = np.arange(r)
    bad_gram = np.zeros((r, r), dtype=bool)
    bad_rows = np.zeros(len(xs), dtype=bool)
    step = max(1, _CHUNK // (len(xs) * r))
    for prime in primes:
        p = prime.p
        img = _images(num, prime)
        # a row refuted at one prime needs no further check
        live = np.flatnonzero(~bad_rows)
        lx, ly = xs[live], ys[live]
        rows = (table[lx, ly] % p).astype(np.float64)
        for lo in range(0, len(img), step):
            s = img[lo:lo + step]
            # sum_a s_xa conj(s_ya) - dim [x = y]; each remainder is
            # taken in int64, several times faster than in float64
            gram = s @ img[prime.conj[lo:lo + step]].transpose(0, 2, 1)
            gram[:, diag, diag] -= (s[:, 0] * s[:, 0]).sum(axis=1, keepdims=True)
            bad_gram |= (gram.astype(np.int64) % p).any(axis=0)
            flat = s.transpose(1, 0, 2).reshape(r, -1)  # flat[z, (slot, a)] = s_za
            # s_xa s_ya - s_0a sum_z N_xy^z s_za
            diff = flat[lx] * flat[ly] - rows @ (flat * flat[0] % p)
            bad_rows[live] |= (diff.astype(np.int64) % p).any(axis=1)
    return (
        {(int(x), int(y)) for x, y in np.argwhere(bad_gram)},
        {(int(xs[i]), int(ys[i])) for i in np.flatnonzero(bad_rows)},
    )


def certified_verlinde(num: np.ndarray, n: int) -> tuple[np.ndarray, set, set]:
    """The candidate table read in slot 0 of the first usable split
    prime of conductor n, with the failures ``certify`` finds over the
    shortest prefix of the split primes whose product exceeds the bound
    B.  ``certify`` divides by nothing, so a prime that is not usable
    certifies too.  Raises ValueError when none of the first
    ``MAX_PRIMES`` primes is usable, or when their product does not
    exceed B.

    The second never happens to a datum the loader accepts.  Its
    coefficients c satisfy |c| < 2^k with k = ``MAX_ENTRY_BITS`` of
    ``modular_data``, and it has phi(N) < 2^10 and r <= 64 = 2^6.  So
    L <= phi(N) max |c| < 2^(10+k); the lifted candidate entries are at
    most (p - 1)/2 < 2^20 in size, so the row mass is below 2^26 and
    max(2r, 1 + row mass) <= 2^26.  Hence B = L^2 max(2r, 1 + row mass)
    < 2^(46+2k).  For every N <= 1024 the first ``MAX_PRIMES`` primes
    exceed 2^20 (a sieve in the tests shows it), so their product
    exceeds 2^160 >= 2^(46+2k) for any k <= 57.
    """
    r, _, phi = num.shape
    if max(r, phi) > MAX_TERMS:
        raise ValueError(f"rank {r} and phi(N) = {phi} must be at most {MAX_TERMS}")
    first = next((i for i in range(MAX_PRIMES) if _usable(num, split_primes(n, i))), None)
    if first is None:
        raise ValueError(f"a dimension or dim(C) vanishes in a slot of each of the first "
                         f"{MAX_PRIMES} split primes of conductor {n}")
    table = _candidate(num, split_primes(n, first))
    bound = certificate_bound(num, table)
    for i in range(MAX_PRIMES):
        chosen = [split_primes(n, j) for j in range(i + 1)]
        if math.prod(prime.p for prime in chosen) > bound:
            return (table, *certify(num, table, chosen))
    raise ValueError(f"the certificate bound {bound} exceeds the product of the first "
                     f"{MAX_PRIMES} split primes of conductor {n}")
