"""Identities of s over split primes, certified by exact arguments.

For a conductor N, a prime p = 1 (mod N) splits completely in Z[zeta_N]:
with w a primitive N-th root of unity mod p, Phi_N has the phi(N) roots
w^k mod p over the units k mod N, and each root gives a ring
homomorphism Z[zeta_N] -> F_p, zeta_N -> w^k.  These are the *slots*
of p; an element on the power basis maps to sum_i c_i w^(k i) mod p.
sigma_k only permutes the slots (``sigma_slots``), and complex
conjugation sends slot k to slot -k.

This is the one route by which ``modgal`` checks an identity in the
entries of s.  A datum's ``Residues`` hold s on the power basis, its
conductor and L, the largest l1 norm of an entry, and image s at a
split prime the first time an identity asks for that prime; the image
is kept as long as the view, which its datum holds
(``ModularData._residues``), so s is imaged once per split prime per
datum, and only this module builds, lays out or reads the images.
``refuted`` evaluates a batch of denominator-free identities in every
slot of enough primes; a nonzero residue refutes its identity, and
residues that vanish in every slot prove it.  Where an answer needs a
division, a candidate is read in one slot of the kept image, where
division is free, and certified by an identity that divides by
nothing.

Each identity declares its degree d, the most entries of s multiplied
together in one term, and its mass m, the l1 norm of its integer term
coefficients; ``refuted`` alone turns them into the bound B = m L^d on
its conjugates and picks the primes (the argument is in ``refuted``).
The five identities and their declarations (d, m) are:

* unitarity (``certify``): s conj(s)^T = dim I, (2, 2r);
* the Verlinde table (``certified_verlinde``, through ``certify``):
  s_xa s_ya = s_0a sum_z N_xy^z s_za, (2, 1 + row mass);
* the Galois permutation of the columns (``certified_permutation``):
  sigma_k(s_xy) s_0z = s_xz sigma_k(s_0y), (2, 2);
* the centralizer relation (``certified_centralizing``):
  s_xy = s_0x s_0y, (2, 2);
* the dimension ratio (``dims_ratio_failures``):
  dim(sigma_hat(X))^2 sigma(dim C) = dim(C) sigma(dim(X)^2), (4, 2r).

Each bound is below the product of the split primes tried, for every
datum within the conductor and rank bounds (``primes_over``).

Residues are held as float64, so that every matrix product runs in
BLAS: they lie in [0, p) with p - 1 < 2^PRIME_BITS, so a product of
two is below 2^42, and every partial sum of at most ``MAX_TERMS`` such
products, and the difference of two such sums, is an integer below
2^53 in size, which float64 holds exactly.  Every sum here has at most
max(r, phi(N)) terms.  The first ``MAX_PRIMES`` primes of a conductor,
their roots and power tables are found once and kept, like the
reduction tables of ``cyclotomic._field``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._numtheory import _primitive_root, is_prime, units_mod

__all__ = [
    "Residues", "SplitPrime", "certified_centralizing", "certified_permutation",
    "certified_verlinde", "certify", "dims_ratio_failures", "primes_over", "refuted",
    "sigma_slots", "split_prime", "split_primes",
]

PRIME_BITS = 21
MAX_TERMS = 1 << (53 - 2 * PRIME_BITS)

# The split primes tried per conductor.  Each is above 2^20 for every
# conductor up to ``MAX_CONDUCTOR``, so their product exceeds 2^180,
# above every certificate bound of every datum within the conductor and
# rank bounds (the argument is in ``primes_over``).
MAX_PRIMES = 9

# Elements of the largest residue array one slot chunk of ``refuted``
# builds, and of the float64 copy of s one block of ``_images`` reduces
# at a time.  They bound memory beside the images of s, which every
# identity reads whole: at rank 64 and phi(N) = 64 those are 2 MB, and
# chunks of 2^20 residues held several copies of them at once, so that
# ``pointed 64`` peaked 15 MB higher.
_CHUNK = 1 << 14
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class SplitPrime:
    """A prime p = 1 (mod n) and its slots.  ``powers[i, j]`` is
    w^(k_j * i) mod p for 0 <= i < phi(n), so slot j sends zeta_n to
    w^(k_j), k_j the j-th unit mod n; slot ``conj[j]`` is its complex
    conjugate, k = -k_j.  Slot 0 is k = 1."""

    p: int
    powers: np.ndarray  # float64
    conj: np.ndarray


def sigma_slots(n: int, k: int) -> np.ndarray:
    """Slot j of sigma_k(a) is slot ``sigma_slots(n, k)[j]`` of a, for a
    unit k mod n and every split prime: slot j sends zeta_n to w^(k_j),
    so it sends sigma_k(a), which is a at zeta_n^k, to a at w^(k k_j)."""
    units = np.array(units_mod(n))  # ascending
    return np.searchsorted(units, k * units % n)


def split_prime(n: int, p: int) -> SplitPrime:
    """The slots of a prime p = 1 (mod n)."""
    if p % n != 1 % n or not is_prime(p):
        raise ValueError(f"{p} is not a prime congruent to 1 mod {n}")
    w = pow(_primitive_root(p, p), (p - 1) // n, p)  # of order exactly n
    wpow = np.array([pow(w, e, p) for e in range(n)], dtype=np.float64)
    units = units_mod(n)
    exps = np.arange(len(units))[:, None] * np.array(units)[None, :] % n
    return SplitPrime(p, wpow[exps], sigma_slots(n, -1))


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


def primes_over(n: int, bound: int) -> list[SplitPrime]:
    """The shortest prefix of the split primes of conductor n whose
    product exceeds ``bound``; ValueError when the first ``MAX_PRIMES``
    do not.

    That never happens to a datum within ``MAX_CONDUCTOR`` and
    ``MAX_RANK`` of ``modular_data``, the bounds the loader and
    ``product`` keep.  Its coefficients c satisfy |c| < 2^k with
    k = ``MAX_ENTRY_BITS``, as in every ``ModularData``, whose
    construction refuses larger ones, and it has phi(N) < 2^10 and
    r <= 64 = 2^6, so the largest l1 norm of an entry is
    L <= phi(N) max |c| < 2^(10+k).  The largest declaration in the
    module docstring is the dimension ratio's, m L^d = 2 r L^4 <
    2^(7+4(10+k)) = 2^(47+4k); the Verlinde one is below
    2^(26+2(10+k)) (``certified_verlinde``), 2 r L^2 is below
    2^(7+2(10+k)) and 2 L^2 below 2^(1+2(10+k)), so each is below
    2^(47+4k).  For every N <= 1024 the first ``MAX_PRIMES`` primes
    exceed 2^20 (a sieve in the tests shows it), so their product
    exceeds 2^180, which is above 2^(47+4k) for any k <= 33."""
    chosen = []
    for i in range(MAX_PRIMES):
        chosen.append(split_primes(n, i))
        if math.prod(prime.p for prime in chosen) > bound:
            return chosen
    raise ValueError(f"the certificate bound {bound} exceeds the product of the first "
                     f"{MAX_PRIMES} split primes of conductor {n}")


def _images(num: np.ndarray, prime: SplitPrime) -> np.ndarray:
    """The images of the int64 entries of ``num`` (shape (..., phi)) in
    every slot, slot axis first, residues in [0, p) as float64.  The
    entries are reduced mod p in blocks of ``_BLOCK`` coefficients.
    Both remainders are taken in int64, several times faster than in
    float64 and exact: the coefficients are integers, and each product
    sum is an integer below 2^53."""
    flat = num.reshape(-1, num.shape[-1])
    img = np.empty((prime.powers.shape[1], len(flat)))
    step = max(1, _BLOCK // flat.shape[1])
    for lo in range(0, len(flat), step):
        block = (flat[lo:lo + step] % prime.p).astype(np.float64)
        img[:, lo:lo + step] = (prime.powers.T @ block.T).astype(np.int64) % prime.p
    return img.reshape((-1,) + num.shape[:-1])


class Residues:
    """The entries of s in Z[zeta_n] on the power basis, ``num`` of
    shape (r, r, phi) in int64, with L = ``l1``, the largest l1 norm of
    an entry's coefficients: |sigma(s_xy)| <= L for every embedding
    sigma of Q(zeta_n) into C.  A read-only int64 array of coefficients
    is kept as given, so the view shares it with its owner (a datum's
    ``ModularData._num``); any other input is copied to int64.
    ``at(prime)`` is the image of s at a split prime of n, built the
    first time it is asked for and kept as long as the view.  ``num``
    and the images are read-only, since every identity shares them."""

    def __init__(self, num, n: int):
        if not (isinstance(num, np.ndarray) and num.dtype == np.int64
                and not num.flags.writeable):
            num = np.array(num, dtype=np.int64)
            num.flags.writeable = False
        self.num = num
        self.n = n
        self.l1 = int(np.abs(self.num).sum(axis=-1).max())
        self._kept: dict[int, np.ndarray] = {}

    def at(self, prime: SplitPrime) -> np.ndarray:
        """img[j, x, y], the residue of s_xy in slot j of the prime."""
        img = self._kept.get(prime.p)
        if img is None:
            img = self._kept[prime.p] = _images(self.num, prime)
            img.flags.writeable = False
        return img


def refuted(residues: Residues, identity, degree: int, mass: int) -> np.ndarray:
    """The mask of the identities that are false: True where one has a
    nonzero residue in some slot, and each False a proof.

    ``identity(prime, img, slots)`` gets the images of s at the prime,
    img[j, x, y] the residue of s_xy in slot j, and an array of slot
    indices; it returns the residues of its identities there, an array
    whose first axis runs over those slots (or over slots and a summed
    index), each an integer below 2^53 in size.  The mask is their OR
    over that axis.  The identity reads the image ``residues`` keeps for
    each prime, in slot chunks of about ``_CHUNK`` residues.  Each of
    its identities y is a sum of integer multiples of products of at
    most ``degree`` entries of s (and their conjugates), whose
    coefficients have l1 norm at most ``mass``.  The primes are
    ``primes_over(n, B)`` with B = mass L^degree, so that:

    * |sigma(s_xy)| <= L for every embedding sigma, as sigma sends each
      root of unity to one, and L is a positive integer once an entry
      is nonzero, so L^degree bounds every term of degree ``degree`` or
      less and |sigma(y)| <= B (if every entry is zero, so is every y).
    * A nonzero residue proves y false.  A residue that is zero in
      every slot lies in each of the phi(N) distinct primes
      (p, zeta_N - w^k) over p, whose product is (p), since p splits
      completely; so y lies in pZ[zeta_N] for each distinct p, hence in
      (prod p) Z[zeta_N].
    * If y != 0, y = (prod p) y' with y' != 0 in Z[zeta_N], and
      |Norm(y)| = (prod p)^phi |Norm(y')| >= (prod p)^phi, since the
      norm of a nonzero algebraic integer is a nonzero rational integer.
      But |Norm(y)| is the product of the phi values |sigma_k(y)|, each
      at most B, and prod p > B, so y = 0."""
    bad = np.zeros((), dtype=bool)
    for prime in primes_over(residues.n, mass * residues.l1 ** degree):
        img = residues.at(prime)
        lo, step = 0, 1
        while lo < len(img):
            res = identity(prime, img, np.arange(lo, min(lo + step, len(img))))
            # the remainder is taken in int64, several times faster than in float64
            bad = bad | (res.astype(np.int64) % prime.p).any(axis=0)
            lo += step
            step = max(1, _CHUNK * step // max(res.size, 1))
    return bad


def _usable(residues: Residues, prime: SplitPrime) -> bool:
    """No dimension s_0a and not dim = sum_a s_0a^2 vanishes in a slot
    of this prime, so slot 0 can divide by them."""
    dims = residues.at(prime)[:, 0]
    return bool(dims.all() and ((dims * dims % prime.p).sum(axis=1) % prime.p).all())


def _characters(s: np.ndarray, p: int) -> np.ndarray:
    """chi[x, a] = s_xa / s_0a of the residues s of one slot."""
    return s * np.array([pow(int(v), -1, p) for v in s[0]], dtype=np.float64) % p


def _candidate(residues: Residues, prime: SplitPrime) -> np.ndarray:
    """N_xy^z = sum_a s_xa s_ya conj(s_za) / (s_0a dim) read in slot 0
    of a usable prime and lifted to (-p/2, p/2]."""
    p = prime.p
    s, cs = residues.at(prime)[[0, prime.conj[0]]]
    r = s.shape[0]
    inv_dim = pow(int((s[0] * s[0] % p).sum() % p), -1, p)
    prods = (_characters(s, p)[:, None, :] * s[None, :, :] % p).reshape(r * r, r)
    table = (prods @ cs.T % p * inv_dim % p).reshape(r, r, r).astype(np.int64)
    return np.where(table > p // 2, table - p, table)


def certify(residues: Residues, table: np.ndarray) -> tuple[set, set]:
    """Check s conj(s)^T = dim I and s_xa s_ya = s_0a sum_z N_xy^z s_za
    (x <= y, every a) through ``refuted``.

    ``residues`` holds the entries of s, which lie in Z[zeta_N];
    dim = sum_a s_0a^2.  Returns the pairs (x, y) where the unitarity
    identity fails and, when it fails nowhere, the pairs x <= y where
    some Verlinde identity of (x, y) fails.  Without unitarity the
    Verlinde identities are not evaluated: the caller reads only the
    failing pairs then.

    Unitarity has 2r terms, each a product of two entries, and the
    Verlinde identity of (x, y, a) has 1 + sum_z |N_xy^z| such terms.
    ValueError when the split primes do not exceed the bound
    (``primes_over``).
    """
    r = table.shape[0]
    xs, ys = np.triu_indices(r)
    diag = np.arange(r)

    def unitarity(prime, img, slots):
        # sum_a s_xa conj(s_ya) - dim [x = y]
        s = img[slots]
        gram = s @ img[prime.conj[slots]].transpose(0, 2, 1)
        gram[:, diag, diag] -= (s[:, 0] * s[:, 0]).sum(axis=1, keepdims=True)
        return gram

    rows = {}

    def verlinde(prime, img, slots):
        # s_xa s_ya - s_0a sum_z N_xy^z s_za, one row per (slot, a)
        if prime.p not in rows:
            rows[prime.p] = (table[xs, ys] % prime.p).astype(np.float64)
        flat = img[slots].transpose(1, 0, 2).reshape(r, -1)  # flat[z, (slot, a)] = s_za
        return (flat[xs] * flat[ys] - rows[prime.p] @ (flat * flat[0] % prime.p)).T

    bad_pairs = {(int(x), int(y)) for x, y in np.argwhere(refuted(residues, unitarity, 2, 2 * r))}
    if bad_pairs:
        return bad_pairs, set()
    row_mass = int(np.abs(table).sum(axis=-1).max())
    bad_rows = refuted(residues, verlinde, 2, 1 + row_mass)
    return set(), {(int(xs[i]), int(ys[i])) for i in np.flatnonzero(bad_rows)}


def _usable_primes(residues: Residues):
    """The usable ones among the first ``MAX_PRIMES`` split primes of
    the conductor, found lazily."""
    primes = (split_primes(residues.n, i) for i in range(MAX_PRIMES))
    return (prime for prime in primes if _usable(residues, prime))


def certified_verlinde(residues: Residues) -> tuple[np.ndarray, set, set]:
    """The candidate table read in slot 0 of the first usable split
    prime of the conductor n, with the failures ``certify`` finds.
    ``certify`` divides by nothing, so a prime that is not usable
    certifies too.  Raises ValueError when none of the first
    ``MAX_PRIMES`` primes is usable.

    The Verlinde declaration stays below the product of the split
    primes for every datum within the conductor and rank bounds
    (``primes_over``): the lifted candidate entries are at most
    (p - 1)/2 < 2^20 in size and r <= 2^6, so 1 + row mass <= 2^26 and
    (1 + row mass) L^2 < 2^(26+2(10+k)).
    """
    r, _, phi = residues.num.shape
    if max(r, phi) > MAX_TERMS:
        raise ValueError(f"rank {r} and phi(N) = {phi} must be at most {MAX_TERMS}")
    prime = next(_usable_primes(residues), None)
    if prime is None:
        raise ValueError(f"a dimension or dim(C) vanishes in a slot of each of the first "
                         f"{MAX_PRIMES} split primes of conductor {residues.n}")
    table = _candidate(residues, prime)
    return (table, *certify(residues, table))


def _column_candidate(residues: Residues, at: np.ndarray) -> list[int | None]:
    """sigma_hat read in one slot.  In slot 0 of the first usable split
    prime whose residue characters s_xz s_0z^-1 are distinct across the
    columns z, entry y is the column z whose residue characters equal
    those of sigma_k(s_xy / s_0y), which slot 0 reads in slot ``at[0]``
    of s (``at = sigma_slots(n, k)``); None where no column does."""
    for prime in _usable_primes(residues):
        s, ks = residues.at(prime)[[0, at[0]]]
        index = {col.tobytes(): z for z, col in enumerate(_characters(s, prime.p).T)}
        if len(index) == len(s):
            return [index.get(col.tobytes()) for col in _characters(ks, prime.p).T]
    raise ValueError(f"no usable one of the first {MAX_PRIMES} split primes of "
                     f"conductor {residues.n} separates the character columns")


def certified_permutation(residues: Residues, k: int) -> list[int | None]:
    """sigma_hat_k: entry y is the column z with
    sigma_k(s_xy / s_0y) = s_xz / s_0z for every x, or None where no
    column is.

    The candidate is read in one slot (``_column_candidate``).  An exact
    match has equal residues there, and the residue columns are
    distinct, so the candidate is that match whenever one exists.  Each
    candidate is certified by sigma_k(s_xy) s_0z = s_xz sigma_k(s_0y)
    for every x, which divides by nothing: two terms, each a product of
    two entries, so (d, m) = (2, 2).  Raises
    ValueError when no usable prime among the first ``MAX_PRIMES``
    separates the columns."""
    at = sigma_slots(residues.n, k)
    perm = _column_candidate(residues, at)
    ys = [y for y, z in enumerate(perm) if z is not None]
    zs = [perm[y] for y in ys]

    def matches(prime, img, slots):
        cur, img_k = img[slots], img[at[slots]]
        return img_k[:, :, ys] * cur[:, :1, zs] - cur[:, :, zs] * img_k[:, :1, ys]

    wrong = refuted(residues, matches, 2, 2).any(axis=0)
    for i in np.flatnonzero(wrong):
        perm[ys[i]] = None
    return perm


def certified_centralizing(residues: Residues) -> tuple[frozenset[int], ...]:
    """centralizing[y] = {x : s_xy = s_0x s_0y}, the objects that
    centralize y (Mueger, *On the structure of modular categories*,
    2003).  The relation is the identity s_xy - s_0x s_0y = 0, certified
    for every pair at once: two terms of degree at most 2, so
    (d, m) = (2, 2)."""

    def relation(prime, img, slots):
        s = img[slots]
        return s - s[:, 0, :, None] * s[:, 0, None, :]

    apart = refuted(residues, relation, 2, 2)
    return tuple(frozenset(x for x, no in enumerate(col) if not no) for col in apart.T.tolist())


def dims_ratio_failures(residues: Residues, perms: dict[int, tuple]) -> list[tuple[int, int]]:
    """The pairs (g, x), in the order of ``perms`` and then of x, where
    dim(perm(x))^2 sigma_g(dim C) = dim(C) sigma_g(dim(x)^2) fails, for
    ``perms`` mapping units g to permutations perm of the objects; []
    when there are none.  sigma_g moves the slots (``sigma_slots``), and
    each side is a sum of r products of four entries, so
    (d, m) = (4, 2r)."""
    if not perms:
        return []
    moved = [(sigma_slots(residues.n, g), list(perm)) for g, perm in perms.items()]

    def ratio(prime, img, slots):
        p = prime.p
        sq = img[:, 0] * img[:, 0] % p  # sq[j, x] = dim(X)^2 in slot j
        dim_c = sq.sum(axis=1) % p
        return np.stack([
            sq[slots][:, perm] * dim_c[at[slots], None] - dim_c[slots, None] * sq[at[slots]]
            for at, perm in moved
        ], axis=1)

    bad = refuted(residues, ratio, 4, 2 * len(residues.num))
    return [(g, int(x)) for g, row in zip(perms, bad) for x in np.flatnonzero(row)]
