"""Exact ``CycNum`` references for the identities that ``modgal`` checks
in split-prime slots: the character table, sigma_hat by column
matching, the centralizer relation, the dimension ratio, and the
fixing-group degree of ``counting2_degree_check``.  Each computes its
answer the way the library did before the residue route, so the
differential tests compare the certified answers with them.
``numeric_value`` is the floating reference that certified signs and
bounds are compared against.  ``full_table_nondegenerate`` decides
pointed nondegeneracy on the whole |A| x |A| bicharacter table, as the
library did before it read the generator columns alone, and
``divisor_tuple_count`` counts cyclic subgroups by the divisor-tuple
sum, as the library did before it took the product over primes.
``column_matching_partition`` computes the pointed orbit partition by
matching whole columns of the |A| x |A| bicharacter table, as the
library did before it matched the columns through their keys at the
generators.  ``reference_enumerate`` enumerates the pointed forms one
candidate at a time, each with its own tables, as the library did
before it checked the candidates a chunk at a time.
``closed_form_counts`` states the closed-form orbit counts that the
acceptance criteria compare against.  ``entry_numerators`` reads the
numerators of s entry by entry, as ``ModularData._residues`` did before
construction converted each distinct entry once, and
``per_entry_pointed`` builds pointed data with one ``root_of_unity``
call per entry, as ``build_pointed`` did before it shared one table of
roots.  ``per_position_preconditions`` and ``per_position_dump`` test
and write s one position at a time, as ``ModularData._table_preconditions``
and ``dump_modular_data`` did before they read each distinct entry
object once.  ``psi_e_matrix_check`` squares one matrix over Q(zeta_8)."""

import itertools
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from modgal._numtheory import (
    divisors,
    euler_phi,
    is_prime,
    permutation_orbits,
    unit_group_generators,
    units_mod,
)
from modgal.cyclotomic import CycNum, dot, root_of_unity
from modgal.modular_data import InvalidModularData, ModularData
from modgal.pointed import MAX_CANDIDATES, QuadraticFormSpec, gram_steps


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


def character_columns(data):
    """columns[Y][X] = s_{X,Y} / s_{0,Y}, with one inverse for all:
    with P_y = d_0 ... d_(y-1), 1/d_y = P_y / P_(y+1) and
    1/P_y = d_y / P_(y+1)."""
    dims = data.dims
    for y, d in enumerate(dims):
        if d.is_zero:
            raise InvalidModularData(f"zero dimension at index {y}")
    prefix = [CycNum.one(data.conductor)]
    for d in dims:
        prefix.append(prefix[-1] * d)
    inv, invs = prefix.pop().inverse(), []
    for d, p in zip(dims[::-1], prefix[::-1]):
        invs.append(p * inv)
        inv = inv * d
    invs.reverse()
    return tuple(tuple(row[y] * invs[y] for row in data.s) for y in range(data.rank))


def column_permutation(data, k, cols=None):
    """sigma_hat_k by exact column matching: sigma_k applied to column Y
    is looked up among the columns."""
    cols = cols or character_columns(data)
    index = {col: y for y, col in enumerate(cols)}
    if len(index) != data.rank:
        raise InvalidModularData("character columns are not distinct")
    perm = []
    for y in range(data.rank):
        z = index.get(tuple(v.galois_apply(k) for v in cols[y]))
        if z is None:
            raise InvalidModularData(f"sigma_{k} maps column {y} outside the character table")
        perm.append(z)
    if len(set(perm)) != data.rank:
        raise InvalidModularData(f"sigma_{k} does not permute the columns")
    return tuple(perm)


def centralizing(data):
    """centralizing[y] = {x : s_xy = d_x d_y}."""
    s, dims = data.s, data.dims
    return tuple(
        frozenset(x for x in range(data.rank) if s[x][y] == dims[x] * dims[y])
        for y in range(data.rank)
    )


def dims_ratio_failures(data, perms):
    """The dimension-ratio failures in ``CycNum``, on the generators,
    for the permutations ``perms`` (unit -> sigma_hat)."""
    dim_c, dims = data.global_dim, data.dims
    failures = []
    for k in unit_group_generators(data.conductor):
        perm = perms[k]
        sdim_c = dim_c.galois_apply(k)
        for x in range(data.rank):
            lhs = dims[perm[x]] * dims[perm[x]] * sdim_c
            rhs = dim_c * (dims[x] * dims[x]).galois_apply(k)
            if lhs != rhs:
                failures.append(f"dimension ratio fails at unit {k}, index {x}")
    return tuple(failures)


def counting2_degrees(data, sub, cent, perms):
    """[K_D meet L_X : Q] for each X in D, in member order, from the
    fixing group of K_D, found by applying every unit to the dimensions
    of the centralizer ``cent``, joined with the stabilizer of X under
    the permutations ``perms`` (every unit -> sigma_hat)."""
    units = units_mod(data.conductor)
    dims = data.dims
    fix_kd = {k for k in units if all(dims[y].galois_apply(k) == dims[y] for y in cent)}
    degrees = []
    for x in sorted(sub):
        fix_lx = {k for k in units if perms[k][x] == x}
        # |H1 H2| = |H1| |H2| / |H1 meet H2| in the abelian unit group
        joint = len(fix_kd) * len(fix_lx) // len(fix_kd & fix_lx)
        degrees.append(len(units) // joint)
    return degrees


def full_table_nondegenerate(form) -> bool:
    """Whether exactly one row of the table b(g, h) = zeta_M^(2 g^T E h)
    over all pairs of elements vanishes mod M: the radical
    {g : b(g, .) = 1} is the identity alone."""
    M = form.modulus
    coords = np.array(form.group.elements(), dtype=np.int64)
    if coords.size == 0:
        return True
    gram = np.array([[e % M for e in row] for row in form.gram], dtype=np.int64)
    bmat = (2 * (coords @ gram @ coords.T)) % M
    return int(np.sum(~np.any(bmat, axis=1))) == 1


def divisor_tuple_count(group) -> int:
    """The number of cyclic subgroups of the group as the divisor-tuple
    sum sum phi(d_1)...phi(d_k) / phi(lcm(d_1,...,d_k)) over the divisors
    d_i of the invariant factors n_i.  Each term is an integer:
    phi(a) phi(b) = phi(lcm(a, b)) phi(gcd(a, b)), so by induction on k,
    phi(d_1)...phi(d_k) is phi(lcm(d_1,...,d_k)) times a product of phis."""
    total = 0
    for tup in itertools.product(*map(divisors, group.invariant_factors)):
        term, rest = divmod(math.prod(map(euler_phi, tup)), euler_phi(math.lcm(*tup)))
        assert rest == 0
        total += term
    return total


def closed_form_counts(kind: str, p: int | None = None, n: int | None = None) -> int:
    """Closed-form orbit counts:

    - 'cyclic_divisors': orbit count of pointed Z/n data = d(n);
    - 'elementary_abelian': 1 + (p^n - 1)/(p - 1);
    - 'product_cyclic': |Orb(pointed Z/p^n (x) rank-(p-1)/2 transitive)|
      = (n(p-1) + 2)/2, p >= 5 prime;
    - 'product_elementary_abelian': (p^n + 1)/2, p >= 5 prime.
    """
    if kind == "cyclic_divisors":
        if n is None or n < 1:
            raise ValueError("need n >= 1")
        return len(divisors(n))
    if p is None or n is None or n < 1:
        raise ValueError("need a prime p and n >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kind == "elementary_abelian":
        return 1 + (p**n - 1) // (p - 1)
    if kind in ("product_cyclic", "product_elementary_abelian"):
        if p < 5:
            raise ValueError("product formulas need p >= 5")
        if kind == "product_cyclic":
            num = n * (p - 1) + 2
        else:
            num = p**n + 1
        assert num % 2 == 0
        return num // 2
    raise ValueError(f"unknown kind {kind!r}")


def entry_numerators(data):
    """The numerators of s as nested lists, one entry at a time."""
    return [[v.num for v in row] for row in data.s]


def per_position_preconditions(data) -> tuple[str, ...]:
    """The failures of ``ModularData._table_preconditions``, each
    dimension and each of the r^2 positions of s tested on its own."""
    failures = []
    for x, d in enumerate(data.s[0]):
        if d.is_zero:
            failures.append(f"zero dimension at index {x}")
        elif d.conjugate() != d:
            failures.append(f"dimension at index {x} is not real")
    for x, row in enumerate(data.s):
        for y, v in enumerate(row):
            if v.den != 1:
                failures.append(f"s-entry ({x},{y}) is not in Z[zeta_N]")
    return tuple(failures)


def per_position_dump(data) -> str:
    """``dump_modular_data(data)`` with the terms of each of the r^2
    positions of s written from its own gcds."""
    def terms(v):
        gcds = [math.gcd(a, v.den) for a in v.num]
        return [[a // g, v.den // g, i] for i, (a, g) in enumerate(zip(v.num, gcds)) if a]

    doc = {
        "conductor": data.conductor,
        "rank": data.rank,
        "labels": list(data.labels),
        "t": list(data.t_exponents),
        "s": [[terms(v) for v in row] for row in data.s],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def per_entry_pointed(group, form):
    """``build_pointed(group, form)`` with a ``root_of_unity`` call for
    each of the |A|^2 entries."""
    M = form.modulus
    gmat, tvec = form._tables
    bmat = gmat @ group._coords.T % M
    c = math.gcd(M, *tvec.tolist())
    labels = tuple("(" + ",".join(map(str, x)) + ")" if x else "0" for x in group.elements())
    s = tuple(tuple(root_of_unity(M // c, e) for e in row) for row in (bmat // c).tolist())
    return ModularData(M // c, group.order, labels, s, tuple((tvec // c).tolist()))


def column_matching_partition(group, form):
    """The Galois orbit partition of the pointed datum of the form, from
    the whole bicharacter table: sigma_u multiplies the exponents of
    column h by u, and the image is looked up among the columns."""
    gmat, _ = form._tables
    M = form.modulus
    # row h is column h of b: b(g, h) = G[g] . h
    cols = group._coords @ gmat.T % M
    n = cols.shape[0]
    col_key = {col.tobytes(): y for y, col in enumerate(cols)}
    if len(col_key) != n:
        raise ValueError("bicharacter columns are not distinct (degenerate form)")
    images = [[col_key[col.tobytes()] for col in u * cols % M] for u in unit_group_generators(M)]
    return permutation_orbits(n, images)


def reference_enumerate(group):
    """Every form of ``enumerate_quadratic_forms``, in its order (its
    ``max_forms`` keeps a prefix): the same candidate families, each
    candidate's G = 2 coords E and T = g^T E g mod M built on its own,
    a candidate kept when exactly one row of G vanishes mod M and its T
    is new."""
    M, steps = gram_steps(group)
    k = len(group.invariant_factors)
    if k == 0:
        yield QuadraticFormSpec(group, ())
        return
    for positions in (
        [(i, j) for i in range(k) for j in range(i, k)],
        [(i, i) for i in range(k)] + [(i, i + 1) for i in range(k - 1)],
        [(i, i) for i in range(k)],
    ):
        rngs = [range(0, M, steps[i][j]) for i, j in positions]
        if math.prod(map(len, rngs)) <= MAX_CANDIDATES:
            break
    index = {pos: n for n, pos in enumerate(positions)}
    zero = len(positions)
    slots = [[index.get((min(i, j), max(i, j)), zero) for j in range(k)] for i in range(k)]
    coords = np.array(group.elements(), dtype=np.int64)
    seen = set()
    for values in itertools.product(*rngs, (0,)):
        gram = tuple(tuple(values[n] for n in row) for row in slots)
        form = QuadraticFormSpec(group, gram)
        half = coords @ np.array(gram, dtype=np.int64)
        if np.count_nonzero(~(2 * half % M).any(axis=1)) != 1:
            continue
        key = tuple((np.einsum("ij,ij->i", half, coords) % M).tolist())
        if key in seen:
            continue
        seen.add(key)
        yield form


@dataclass(frozen=True)
class PsiMatrixReport:
    k: int
    symmetric: bool
    square_is_scalar: bool
    scalar_exponent: int  # power of zeta_4

    @property
    def ok(self) -> bool:
        return self.symmetric and self.square_is_scalar


def psi_e_matrix_check(k: int) -> PsiMatrixReport:
    """Exact check that (zeta_4^k / 2) [[0, d, -d], [d, 1, 1], [-d, 1, 1]]
    with d^2 = 2 squares to zeta_4^(2k) times the identity."""
    if not 0 <= k <= 3:
        raise ValueError("k must be 0..3")
    n = 8
    d = root_of_unity(n, 1) + root_of_unity(n, 7)  # sqrt(2)
    one = CycNum.one(n)
    zero = CycNum.zero(n)
    f = root_of_unity(n, 2 * k) * CycNum.rational("1/2", n)
    base = ((zero, d, -d), (d, one, one), (-d, one, one))
    mat = [[f * v for v in row] for row in base]
    symmetric = all(mat[i][j] == mat[j][i] for i in range(3) for j in range(3))
    want = root_of_unity(4, 2 * k).embed(8)
    columns = tuple(zip(*mat))
    ok = all(
        dot(mat[i], columns[j]) == (want if i == j else zero)
        for i in range(3)
        for j in range(3)
    )
    return PsiMatrixReport(k, symmetric, ok, (2 * k) % 4)
