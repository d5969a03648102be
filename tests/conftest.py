import pytest

from modgal.cyclotomic import CycNum
from modgal.families import catalog, fibonacci, ising, sl2_level_adjoint
from modgal.modular_data import ModularData, deligne_product

# The report rungs of the benchmark ladder
LADDER = {
    "fib_x_sl2_7": lambda: deligne_product(fibonacci(2), sl2_level_adjoint(7, 3)),
    "ising_x_sl2_7": lambda: deligne_product(ising(3), sl2_level_adjoint(7, 2)),
    "sl2_19_ad": lambda: sl2_level_adjoint(19, 2),
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
