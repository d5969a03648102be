"""Exact ``CycNum`` references for the identities that ``modgal`` checks
in split-prime slots: the character table, sigma_hat by column
matching, the centralizer relation, the dimension ratio, and the
fixing-group degree of ``counting2_degree_check``.  Each computes its
answer the way the library did before the residue route, so the
differential tests compare the certified answers with them.
``numeric_value`` is the floating reference that certified signs and
bounds are compared against."""

import mpmath

from modgal._numtheory import unit_group_generators, units_mod
from modgal.cyclotomic import CycNum
from modgal.modular_data import InvalidModularData


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


def counting2_degrees(data, sub, cent, stabilizers):
    """[K_D meet L_X : Q] for each X in D, in member order, from the
    fixing group of K_D, found by applying every unit to the dimensions
    of the centralizer ``cent``, joined with the stabilizer of X."""
    units = units_mod(data.conductor)
    dims = data.dims
    fix_kd = {k for k in units if all(dims[y].galois_apply(k) == dims[y] for y in cent)}
    degrees = []
    for x in sorted(sub):
        fix_lx = set(stabilizers[x])
        # |H1 H2| = |H1| |H2| / |H1 meet H2| in the abelian unit group
        joint = len(fix_kd) * len(fix_lx) // len(fix_kd & fix_lx)
        degrees.append(len(units) // joint)
    return degrees
