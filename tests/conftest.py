import dataclasses

import pytest

from modgal._numtheory import permutation_orbits, unit_group_generators
from modgal.cyclotomic import CycNum
from modgal.families import catalog, fibonacci, fixture, fixture_names, ising, sl2_level_adjoint
from modgal.galois_action import galois_conjugate_data, orbit_partition
from modgal.modular_data import ModularData, deligne_product
from modgal.pointed import FiniteAbelianGroup, build_pointed
from modgal.subcategories import _relations

# The report rungs of the benchmark ladder
LADDER = {
    "fib_x_sl2_7": lambda: deligne_product(fibonacci(2), sl2_level_adjoint(7, 3)),
    "ising_x_sl2_7": lambda: deligne_product(ising(3), sl2_level_adjoint(7, 2)),
    "sl2_19_ad": lambda: sl2_level_adjoint(19, 2),
}

# The Deligne products of rank 12, 25 and 30 (conductors 65, 55 and 143)
PRODUCTS = {
    "fib_x_sl2_13": lambda: deligne_product(fibonacci(0), sl2_level_adjoint(13)),
    "z5_x_sl2_11": lambda: deligne_product(build_pointed(FiniteAbelianGroup((5,))),
                                           sl2_level_adjoint(11)),
    "sl2_11_x_sl2_13": lambda: deligne_product(sl2_level_adjoint(11), sl2_level_adjoint(13)),
}


def _conjugate(name):
    """The fixture conjugated by the first generator of its unit group."""
    data = fixture(name)
    gens = unit_group_generators(data.conductor)
    return galois_conjugate_data(data, gens[0]) if gens else data


# The fixtures and their conjugates, the ladder rungs and three pointed
# data, which the exact references are compared on
DIFFERENTIAL = {
    **{name: lambda name=name: fixture(name) for name in fixture_names()},
    **{f"{name}_sigma": lambda name=name: _conjugate(name) for name in fixture_names()},
    **LADDER,
    "Z2^4": lambda: build_pointed(FiniteAbelianGroup((2, 2, 2, 2))),
    "Z2xZ4xZ4": lambda: build_pointed(FiniteAbelianGroup((2, 4, 4))),
    "Z2^2_x_ising": lambda: deligne_product(build_pointed(FiniteAbelianGroup((2, 2))), ising(0)),
}


@pytest.fixture(scope="session")
def fixture_catalog():
    return catalog()


def _edited(base: ModularData, edit) -> ModularData:
    s = [list(row) for row in base.s]
    edit(s)
    return ModularData(base.conductor, base.rank, base.labels, tuple(map(tuple, s)), base.t_exponents)


def _double_pair(s):
    s[1][2] = s[1][2] * 2
    s[2][1] = s[2][1] * 2


def _negate_row_and_column_1(s):
    for k in range(len(s)):
        s[1][k] = -s[1][k]
    for k in range(len(s)):
        s[k][1] = -s[k][1]


@pytest.fixture(scope="session")
def phase2_invalid():
    """Symmetric data with real, nonzero dimensions that pass the first
    phase of ``validate`` and break the Verlinde table."""
    one = CycNum.one(1)
    return {
        # N(0,0)^1 = (s s^T)_01 / dim(C) is not an integer
        "ising-pair-doubled": _edited(ising(0), _double_pair),
        # N(1,1)^1 = -1
        "fibonacci-row-1-negated": _edited(fibonacci(0), _negate_row_and_column_1),
        # unitary with s^2 = dim(C), but N(1,1)^1 = 3/2
        "non-integer-coefficient": ModularData(
            1, 2, ("1", "x"), ((one, one * 2), (one * 2, -one)), (0, 0)
        ),
    }


def planted_perms(data, perm):
    """``data`` with sigma_hat of every generator planted as ``perm`` in
    its memo, and the orbits of ``perm``."""
    part = orbit_partition(data)
    data._memo["orbit_partition"] = dataclasses.replace(
        part, perms=dict.fromkeys(part.perms, perm), orbits=permutation_orbits(data.rank, [perm])
    )
    return data


def planted_centralizing(data, centralizing):
    """``data`` with the ``centralizing`` table planted in its memo."""
    support, _ = _relations(data)
    data._memo["_relations"] = (support, centralizing)
    return data
