"""Container, validation, fusion reconstruction, and file format.

Expected fusion coefficients are computed here with an independent
oracle: arithmetic in Q(sqrt(5)) and Q(sqrt(2)) on (a + b*sqrt(d))
pairs of Fractions, evaluating the character sums directly.
"""

import dataclasses
import gc
import json
import re
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import DIFFERENTIAL, LADDER, PRODUCTS
from reference import (
    character_columns,
    entry_numerators,
    numeric_value,
    per_position_dump,
    per_position_preconditions,
)
from modgal.cyclotomic import CycNum, dot, root_of_unity
from modgal.families import catalog, fibonacci, fixture_names, ising, sl2_level_adjoint
from modgal.galois_action import galois_permutation, orbit_partition
from modgal.modular_data import (
    MAX_CONDUCTOR,
    MAX_ENTRY_BITS,
    MAX_RANK,
    InvalidModularData,
    ModularData,
    deligne_product,
    dump_modular_data,
    loads_modular_data,
)
from modgal.pointed import FiniteAbelianGroup, build_pointed
from modgal.subcategories import all_subcategories


class Quad:
    """a + b sqrt(d) with Fraction coefficients; just enough field
    arithmetic to serve as an oracle."""

    def __init__(self, a, b=0, d=5):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def __add__(self, o):
        o = self._lift(o)
        return Quad(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        o = self._lift(o)
        return Quad(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        o = self._lift(o)
        return Quad(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    def __truediv__(self, o):
        o = self._lift(o)
        norm = o.a * o.a - self.d * o.b * o.b
        conj = Quad(o.a, -o.b, self.d)
        num = self * conj
        return Quad(num.a / norm, num.b / norm, self.d)

    def _lift(self, o):
        return o if isinstance(o, Quad) else Quad(o, 0, self.d)

    def __eq__(self, o):
        o = self._lift(o)
        return self.a == o.a and self.b == o.b

    def __repr__(self):
        return f"({self.a}+{self.b}*sqrt{self.d})"


def verlinde_oracle(s_quad, dim):
    """Brute-force N_{xy}^z = (1/dim) sum_a s_xa s_ya conj(s_za)/s_0a in
    quadratic-field arithmetic (all entries real here)."""
    r = len(s_quad)
    out = {}
    for x in range(r):
        for y in range(r):
            for z in range(r):
                acc = Quad(0, 0, s_quad[0][0].d)
                for a in range(r):
                    acc = acc + s_quad[x][a] * s_quad[y][a] * s_quad[z][a] / s_quad[0][a]
                out[x, y, z] = acc / dim
    return out


class TestFibonacci:
    def test_validation(self, fixture_catalog):
        assert fixture_catalog["fibonacci"].validate().ok

    def test_fusion_against_quadratic_oracle(self):
        u = Quad(Fraction(1, 2), Fraction(1, 2))  # golden ratio
        s = [[Quad(1), u], [u, Quad(-1)]]
        dim = Quad(1) + u * u
        oracle = verlinde_oracle(s, dim)
        table = fibonacci(0).fusion
        for (x, y, z), val in oracle.items():
            assert val == table.coeffs[x][y][z], (x, y, z)
        assert table.coeffs[1][1][1] == 1
        assert table.coeffs[1][1][0] == 1

    def test_global_dim(self):
        data = fibonacci(0)
        u = 1 + root_of_unity(5, 1) + root_of_unity(5, 4)
        assert data.global_dim == u * u + 1

    def test_fp_dims_pseudounitary(self):
        data = fibonacci(0)
        fp = data.fp_dims
        assert fp == data.dims
        # each FPdim is the Perron eigenvalue of its fusion matrix
        for x in range(data.rank):
            radius = max(abs(np.linalg.eigvals(np.array(data.fusion.coeffs[x], dtype=float))))
            assert radius == pytest.approx(numeric_value(fp[x]).real, rel=1e-8)


class TestIsing:
    def test_fusion_against_quadratic_oracle(self):
        d = Quad(0, 1, 2)  # sqrt(2)
        s = [[Quad(1, 0, 2), d, Quad(1, 0, 2)],
             [d, Quad(0, 0, 2), Quad(0, 0, 2) - d],
             [Quad(1, 0, 2), Quad(0, 0, 2) - d, Quad(1, 0, 2)]]
        oracle = verlinde_oracle(s, Quad(4, 0, 2))
        table = ising(0).fusion
        for (x, y, z), val in oracle.items():
            assert val == table.coeffs[x][y][z], (x, y, z)
        # the sqrt(2) object squares to 1 + f and never to itself
        assert table.coeffs[1][1][2] == 1
        assert table.coeffs[1][1][1] == 0

    def test_charge_conjugation_trivial(self):
        assert ising(0).charge_conjugation == (0, 1, 2)


class TestValidationFailures:
    def test_zero_dimension(self):
        one = CycNum.one(4)
        zero = CycNum.zero(4)
        i = root_of_unity(4, 1)
        data = ModularData(4, 2, ("1", "x"), ((one, zero), (zero, one)), (0, 1))
        report = data.validate()
        assert not report.ok
        assert any("zero dimension" in f for f in report.failures)

    def test_asymmetric(self):
        one = CycNum.one(4)
        i = root_of_unity(4, 1)
        data = ModularData(4, 2, ("1", "x"), ((one, one), (-one, one)), (0, 1))
        report = data.validate()
        assert any("not symmetric" in f for f in report.failures)

    def test_wrong_conductor(self):
        one = CycNum.one(4)
        data = ModularData(4, 2, ("1", "x"), ((one, one), (one, -one)), (0, 2))
        report = data.validate()
        assert any("twist orders" in f for f in report.failures)

    def test_collects_all_failures(self):
        one = CycNum.one(4)
        zero = CycNum.zero(4)
        data = ModularData(4, 2, ("1", "x"), ((zero, one), (-one, zero)), (1, 1))
        report = data.validate()
        assert len(report.failures) >= 3

    def test_verlinde_table_failures(self, phase2_invalid):
        for name, data in phase2_invalid.items():
            report = data.validate()
            assert not report.ok, name
            assert any(f.startswith("fusion coefficient") for f in report.failures), name


class TestCharacterColumns:
    """The test-side character table that the exact references read."""

    @pytest.mark.parametrize("name", fixture_names() + tuple(LADDER))
    def test_match_one_inverse_per_dimension(self, name, fixture_catalog):
        # the columns share one inverse of the product of the dimensions
        data = fixture_catalog[name] if name in fixture_catalog else LADDER[name]()
        s = data.s
        for y, column in enumerate(character_columns(data)):
            inv = s[0][y].inverse()
            assert column == tuple(s[x][y] * inv for x in range(data.rank)), (name, y)

    def test_a_zero_dimension_is_named_before_any_inverse(self):
        one, zero = CycNum.one(1), CycNum.zero(1)
        data = ModularData(1, 3, ("1", "x", "y"), ((one, zero, zero),) * 3, (0, 0, 0))
        with pytest.raises(InvalidModularData, match="zero dimension at index 1"):
            character_columns(data)
        # the library reads no column, and names it before any residue too
        for read in (lambda: galois_permutation(data, 0), lambda: data.fp_dims):
            with pytest.raises(InvalidModularData, match="zero dimension at index 1"):
                read()


class TestTableIdentities:
    """The two matrix identities the Verlinde table holds, against
    s s^T and s conj(s)^T computed entry by entry."""

    @pytest.mark.parametrize("name", fixture_names() + tuple(LADDER))
    def test_unit_row_and_column(self, name, fixture_catalog):
        data = fixture_catalog[name] if name in fixture_catalog else LADDER[name]()
        r, s, dim = data.rank, data.s, data.global_dim
        table = data.fusion
        conj_s = [[v.conjugate() for v in row] for row in s]
        for x in range(r):
            for y in range(r):
                assert dim * table.coeffs[x][y][0] == dot(s[x], s[y]), (x, y)
                assert dim * table.coeffs[0][x][y] == dot(s[x], conj_s[y]), (x, y)
        columns = list(zip(*s))
        square = [[dot(s[i], columns[j]) for j in range(r)] for i in range(r)]
        assert data.charge_conjugation == tuple(row.index(dim) for row in square)


class TestMemo:
    def test_results_live_as_long_as_the_datum(self):
        data = fibonacci(0)
        ref = weakref.ref(data)
        part, subs, table = orbit_partition(data), all_subcategories(data), data.fusion
        assert orbit_partition(data) is part
        assert all_subcategories(data) is subs
        assert data.fusion is table
        del data, part, subs, table
        gc.collect()
        assert ref() is None


class TestUnitRotation:
    def test_reordered_moves_unit_first(self):
        base = fibonacci(0)
        rotated_s = (
            (base.s[1][1], base.s[1][0]),
            (base.s[0][1], base.s[0][0]),
        )
        data = ModularData(5, 2, ("t", "1"), rotated_s, (2, 0)).reordered((1, 0))
        assert data.labels == ("1", "t")
        assert data.s == base.s
        assert data.t_exponents == base.t_exponents

    def test_reordered_and_back(self):
        base = sl2_level_adjoint(13)
        order = (3, 0, 5, 1, 4, 2)
        inverse = tuple(sorted(range(base.rank), key=order.__getitem__))
        moved = base.reordered(order)
        assert moved.labels == tuple(base.labels[i] for i in order)
        assert moved.s != base.s and moved.t_exponents != base.t_exponents
        back = moved.reordered(inverse)
        assert (back.s, back.t_exponents, back.labels) == (base.s, base.t_exponents, base.labels)


class TestDerivedScalars:
    def test_rank_one(self):
        triv = ModularData(1, 1, ("1",), ((CycNum.one(1),),), (0,))
        assert triv.global_dim == 1
        assert triv.tau() == 1
        assert triv.central_charge_squared() == 1

    def test_pointed_dim_is_order(self, fixture_catalog):
        for name, order in [("pointed_z3", 3), ("pointed_z5", 5), ("pointed_z2z2", 4)]:
            assert fixture_catalog[name].global_dim == order

    def test_central_charge_squared_is_root_of_unity(self, fixture_catalog):
        from modgal.cyclotomic import root_of_unity_order

        for name, data in fixture_catalog.items():
            if data.conductor % 2 == 1:
                # xi^2 lies among the 2N-th roots; check via its square
                xi2 = data.central_charge_squared()
                assert root_of_unity_order(xi2 * xi2) is not None, name


class TestDeligneProduct:
    def test_unit_factor(self, fixture_catalog):
        fib = fixture_catalog["fibonacci"]
        triv = fixture_catalog["trivial"]
        prod = deligne_product(fib, triv)
        assert prod.conductor == fib.conductor
        assert prod.s == fib.s
        assert prod.t_exponents == fib.t_exponents

    def test_dim_multiplicative(self, fixture_catalog):
        a = fixture_catalog["fibonacci"]
        b = fixture_catalog["ising"]
        prod = deligne_product(a, b)
        assert prod.global_dim == a.global_dim.embed(80) * b.global_dim.embed(80)

    def test_fusion_is_tensor_product(self, fixture_catalog):
        a = fixture_catalog["fibonacci"]
        b = fixture_catalog["pointed_z3"]
        prod = deligne_product(a, b)
        ta, tb, tp = a.fusion, b.fusion, prod.fusion
        rb = b.rank
        for x1 in range(a.rank):
            for x2 in range(b.rank):
                for y1 in range(a.rank):
                    for y2 in range(b.rank):
                        for z1 in range(a.rank):
                            for z2 in range(b.rank):
                                assert tp.coeffs[x1 * rb + x2][y1 * rb + y2][
                                    z1 * rb + z2
                                ] == ta.coeffs[x1][y1][z1] * tb.coeffs[x2][y2][z2]


class TestFusionTableInvariants:
    @pytest.mark.parametrize("name", ["fibonacci", "ising", "pointed_z4", "sl2_7_ad"])
    def test_unit_row_and_duality(self, name, fixture_catalog):
        data = fixture_catalog[name]
        table = data.fusion
        r = data.rank
        for x in range(r):
            for z in range(r):
                assert table.coeffs[x][0][z] == (1 if x == z else 0)
                assert table.coeffs[x][z][0] == (1 if z == table.dual[x] else 0)

    @pytest.mark.parametrize("name", ["fibonacci", "ising", "sl2_7_ad", "fib_x_fib"])
    def test_associativity(self, name, fixture_catalog):
        table = fixture_catalog[name].fusion
        r = len(table.coeffs)
        for x in range(r):
            for y in range(r):
                for z in range(r):
                    for v in range(r):
                        lhs = sum(table.coeffs[x][y][w] * table.coeffs[w][z][v] for w in range(r))
                        rhs = sum(table.coeffs[y][z][w] * table.coeffs[x][w][v] for w in range(r))
                        assert lhs == rhs


def _fields(data: ModularData) -> list:
    return [getattr(data, f.name) for f in dataclasses.fields(ModularData)]


class TestFileFormat:
    def test_round_trip_all_fixtures(self, fixture_catalog):
        for name, data in fixture_catalog.items():
            assert _fields(loads_modular_data(dump_modular_data(data))) == _fields(data), name

    def test_round_trip_product_and_fractions(self):
        # one JSON line; the rank-1 datum has coefficients 1/2, -3/4, 0, 1/3
        fractional = CycNum(5, [Fraction(1, 2), Fraction(-3, 4), 0, Fraction(2, 6)])
        for data in (LADDER["fib_x_sl2_7"](), ModularData(5, 1, ("1",), ((fractional,),), (0,))):
            text = dump_modular_data(data)
            assert "\n" not in text[:-1] and ", " not in text
            assert _fields(loads_modular_data(text)) == _fields(data)
        assert '[[[[1,2,0],[-3,4,1],[1,3,3]]]]' in text

    def test_unreduced_terms_canonicalize(self):
        # 1*z5^9 is stored unreduced; the loader must reduce mod Phi_5
        text = """{"conductor": 5, "rank": 1, "labels": ["1"],
                   "t": [0], "s": [[[[1, 1, 9]]]]}"""
        # not valid modular data (s00 = z5^4 != 1) but must parse and reduce
        data = loads_modular_data(text)
        assert data.s[0][0] == root_of_unity(5, 4)

    def test_terms_fold_like_fractions(self):
        # a negative denominator loads as Fraction(2, -4) = -1/2 would
        entry = [[2, -4, 7], [3, 6, 0]]
        doc = {"conductor": 5, "rank": 1, "labels": ["1"], "t": [0], "s": [[entry]]}
        want = CycNum.from_terms(5, [(Fraction(2, -4), 7), (Fraction(3, 6), 0)])
        assert loads_modular_data(json.dumps(doc)).s[0][0] == want

    @pytest.mark.parametrize(
        "entry,message",
        [
            ("x", "an s-entry must be a list"),
            ([1], "an s-entry must be a list"),
            ([[1, 1]], "an s-entry must be a list"),
            ([[1, 1, 0], [1, 1, 0, 0]], "an s-entry must be a list"),
            ([[1, 1, True]], "an s-entry must be a list"),
            ([[1, 1.0, 0]], "an s-entry must be a list"),
            ([[1, 1, 0], [1, 0, 2]], "zero denominator"),
        ],
    )
    def test_malformed_entries(self, entry, message):
        doc = {"conductor": 5, "rank": 1, "labels": ["1"], "t": [0], "s": [[entry]]}
        with pytest.raises(InvalidModularData, match=message):
            loads_modular_data(json.dumps(doc))

    def test_parse_error(self):
        with pytest.raises(InvalidModularData):
            loads_modular_data("{ truncated")

    def test_missing_field(self):
        with pytest.raises(InvalidModularData):
            loads_modular_data('{"conductor": 5}')

    def test_shape_error(self):
        with pytest.raises(InvalidModularData):
            loads_modular_data(
                '{"conductor": 5, "rank": 2, "labels": ["a","b"], "t": [0,0], "s": [[[]]]}'
            )

    def test_conductor_bound(self):
        def doc(n):
            return json.dumps(
                {"conductor": n, "rank": 1, "labels": ["1"], "t": [0], "s": [[[[1, 1, 0]]]]}
            )

        assert loads_modular_data(doc(MAX_CONDUCTOR)).conductor == MAX_CONDUCTOR
        with pytest.raises(InvalidModularData, match=str(MAX_CONDUCTOR + 1)):
            loads_modular_data(doc(MAX_CONDUCTOR + 1))

    def test_rank_bound(self):
        def doc(r):
            entry = [[1, 1, 0]]
            return json.dumps({
                "conductor": 1, "rank": r, "labels": [str(i) for i in range(r)],
                "t": [0] * r, "s": [[entry] * r for _ in range(r)],
            })

        assert loads_modular_data(doc(MAX_RANK)).rank == MAX_RANK
        with pytest.raises(InvalidModularData, match=f"at most {MAX_RANK}, got {MAX_RANK + 1}"):
            loads_modular_data(doc(MAX_RANK + 1))

    def test_entry_bound(self):
        def doc(num, den):
            return json.dumps(
                {"conductor": 1, "rank": 1, "labels": ["1"], "t": [0], "s": [[[[num, den, 0]]]]}
            )

        def built(num, den):
            entry = CycNum.rational(Fraction(num, den), 1)
            return ModularData(1, 1, ("1",), ((entry,),), (0,))

        below = (1 << MAX_ENTRY_BITS) - 1
        message = rf"^s-entry \(0,0\) has a numerator or denominator of 2\^{MAX_ENTRY_BITS} or more$"
        # the loader and construction in code refuse alike
        for make in (lambda num, den: loads_modular_data(doc(num, den)), built):
            for num, den in ((below, 1), (-below, 1), (1, below)):
                assert make(num, den).s[0][0].as_rational() == Fraction(num, den)
            for num, den in ((below + 1, 1), (-below - 1, 1), (1, below + 1)):
                with pytest.raises(InvalidModularData, match=message):
                    make(num, den)

    @pytest.mark.parametrize(
        "parts,message,loadable",
        [
            ((1, 0, (), (), ()), "rank must be >= 1, got 0", True),
            ((1, 2, ("1", "x"), ((CycNum.one(1),) * 2, (CycNum.one(1),)), (0, 0)),
             "s is not square", False),
            ((1, 1, ("1",), ((CycNum.one(5),),), (0,)),
             "s entry conductor differs from declared conductor", False),
            ((1, 1, ("1", "x"), ((CycNum.one(1),),), (0,)),
             "rank does not match row/label/twist counts", True),
        ],
        ids=["rank-0", "not-square", "conductor", "counts"],
    )
    def test_construction_refusals(self, parts, message, loadable):
        # built in code, and loaded where the loader's own checks let
        # the datum through to construction
        with pytest.raises(InvalidModularData, match=f"^{re.escape(message)}$"):
            ModularData(*parts)
        if loadable:
            n, rank, labels, s, t = parts
            doc = {"conductor": n, "rank": rank, "labels": list(labels), "t": list(t),
                   "s": [[[[1, 1, 0]] for _ in row] for row in s]}
            with pytest.raises(InvalidModularData, match=f"^{re.escape(message)}$"):
                loads_modular_data(json.dumps(doc))


# The data whose numerator array is compared with the entries: the
# fixtures, their conjugates, the ladder and three pointed data, the
# rank-12, 25 and 30 products, and two reordered data, one of whose
# entries repeat
NUMERATORS = {
    **DIFFERENTIAL,
    **PRODUCTS,
    "sl2_7_reordered": lambda: sl2_level_adjoint(7).reordered((0, 2, 1)),
    "Z2xZ4_reordered": lambda: build_pointed(FiniteAbelianGroup((2, 4))).reordered(
        (0, 5, 3, 7, 1, 2, 4, 6)),
}


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _shared_failures():
    """Rank-4 data at conductor 3 whose failing values fill several
    positions each: w (not real) at dimensions 1 and 2, zero at 3, and
    one half at seven entries; once with one object per value, and once
    with an object of its own at every position."""
    make = {"1": lambda: CycNum.one(3), "w": lambda: root_of_unity(3, 1),
            "0": lambda: CycNum.zero(3), "h": lambda: CycNum.rational(Fraction(1, 2), 3)}
    grid = ("1ww0", "wh1h", "w1h1", "0hhh")
    shared = {name: new() for name, new in make.items()}
    return [
        ModularData(3, 4, ("a", "b", "c", "d"), tuple(tuple(map(value, row)) for row in grid),
                    (0, 0, 0, 0))
        for value in (shared.__getitem__, lambda name: make[name]())
    ]


class TestDistinctEntries:
    def test_a_shared_failing_object_is_named_at_every_position(self):
        # the same failure tuple as the walk over every position, in its
        # order: the dimensions, then the entries row-major
        shared, fresh = _shared_failures()
        assert len(shared._entry_slots[0]) == 4 and fresh._entry_slots[1] is None
        for data in (shared, fresh):
            assert data._table_preconditions == per_position_preconditions(data) == (
                "dimension at index 1 is not real",
                "dimension at index 2 is not real",
                "zero dimension at index 3",
                "s-entry (1,1) is not in Z[zeta_N]",
                "s-entry (1,3) is not in Z[zeta_N]",
                "s-entry (2,2) is not in Z[zeta_N]",
                "s-entry (3,1) is not in Z[zeta_N]",
                "s-entry (3,2) is not in Z[zeta_N]",
                "s-entry (3,3) is not in Z[zeta_N]",
            )

    def test_preconditions_match_the_per_position_walk(self, fixture_catalog):
        data = [*fixture_catalog.values(), build_pointed(FiniteAbelianGroup((64,))),
                *(f() for f in PRODUCTS.values())]
        for datum in data:
            assert datum._table_preconditions == per_position_preconditions(datum) == ()

    def test_dumps_match_the_per_position_dump(self):
        # built data, which share objects, the files the loader reads,
        # which do not, and the data with failing entries above
        data = [build_pointed(FiniteAbelianGroup((64,))), *catalog().values(),
                *(loads_modular_data(path.read_text())
                  for path in sorted(FIXTURE_DIR.glob("*.mtc"))),
                *(f() for f in PRODUCTS.values()), *_shared_failures()]
        assert len(data) > 2 * len(fixture_names())
        assert {datum._entry_slots[1] is None for datum in data} == {True, False}
        for datum in data:
            assert dump_modular_data(datum) == per_position_dump(datum), datum.labels


class TestNumerators:
    @pytest.mark.parametrize("name", sorted(NUMERATORS))
    def test_residues_hold_the_entry_numerators(self, name):
        data = NUMERATORS[name]()
        num = data._residues.num
        assert num.dtype == np.int64
        assert np.array_equal(num, np.array(entry_numerators(data)))

    def test_residues_share_the_array_construction_made(self):
        # one copy of the numerators per datum, read-only, at rank 64
        data = build_pointed(FiniteAbelianGroup((64,)))
        assert np.shares_memory(data._residues.num, data._num)
        assert not data._num.flags.writeable

    def test_a_shared_over_bound_entry_is_named_at_its_first_position(self):
        one, big = CycNum.one(1), CycNum.rational(1 << MAX_ENTRY_BITS, 1)
        other = CycNum.rational(-(1 << MAX_ENTRY_BITS), 1)
        cases = [
            # one object at (0,1) and (1,0)
            (((one, big), (big, one)), (0, 1)),
            # one object at (0,2) and (2,0), another at (1,1)
            (((one, one, big), (one, other, one), (big, one, one)), (0, 2)),
            # one object at (2,1) and (1,2), another first at (1,0)
            (((one, one, one), (other, one, big), (other, big, one)), (1, 0)),
        ]
        for s, (x, y) in cases:
            message = (rf"^s-entry \({x},{y}\) has a numerator or denominator of "
                       rf"2\^{MAX_ENTRY_BITS} or more$")
            with pytest.raises(InvalidModularData, match=message):
                ModularData(1, len(s), tuple(map(str, range(len(s)))), s, (0,) * len(s))

    def test_a_shared_entry_of_another_conductor(self):
        one, five = CycNum.one(1), CycNum.one(5)
        big = CycNum.rational(1 << MAX_ENTRY_BITS, 1)
        conductor = "^s entry conductor differs from declared conductor$"
        bound = rf"^s-entry \(1,1\) has a numerator or denominator of 2\^{MAX_ENTRY_BITS}"
        for s, message in [
            (((one, five), (five, one)), conductor),
            # the first failing position decides, whichever check fails
            (((one, five), (five, big)), conductor),
            (((one, one), (one, big)), bound),
            (((one, one, one), (one, big, five), (one, five, one)), bound),
        ]:
            with pytest.raises(InvalidModularData, match=message):
                ModularData(1, len(s), tuple(map(str, range(len(s)))), s, (0,) * len(s))

    def test_short_rows_keep_the_order_of_messages(self):
        one, big = CycNum.one(1), CycNum.rational(1 << MAX_ENTRY_BITS, 1)
        square = "^s is not square$"
        bound = rf"^s-entry \(0,0\) has a numerator or denominator of 2\^{MAX_ENTRY_BITS}"
        for s, message in [
            # a short first row before any entry, shared or not
            (((big,), (big, big)), square),
            (((one,), (one, one)), square),
            (((one, one), (big,)), square),
            # the entries of the rows before a short row come first
            (((big, big), (big,)), bound),
        ]:
            with pytest.raises(InvalidModularData, match=message):
                ModularData(1, 2, ("0", "1"), s, (0, 0))

