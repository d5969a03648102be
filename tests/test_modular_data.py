"""Container, validation, fusion reconstruction, and file format.

Expected fusion coefficients are computed here with an independent
oracle: arithmetic in Q(sqrt(5)) and Q(sqrt(2)) on (a + b*sqrt(d))
pairs of Fractions, evaluating the character sums directly.
"""

import dataclasses
import gc
import json
import weakref
from fractions import Fraction

import numpy as np
import pytest

from conftest import LADDER
from reference import character_columns, numeric_value
from modgal.cyclotomic import CycNum, dot, root_of_unity
from modgal.families import fibonacci, fixture_names, ising
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
            assert val == table.n(x, y, z), (x, y, z)
        assert table.n(1, 1, 1) == 1
        assert table.n(1, 1, 0) == 1

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
            radius = max(abs(np.linalg.eigvals(np.array(data.fusion.matrix(x), dtype=float))))
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
            assert val == table.n(x, y, z), (x, y, z)
        # the sqrt(2) object squares to 1 + f and never to itself
        assert table.n(1, 1, 2) == 1
        assert table.n(1, 1, 1) == 0

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
                assert dim * table.n(x, y, 0) == dot(s[x], s[y]), (x, y)
                assert dim * table.n(0, x, y) == dot(s[x], conj_s[y]), (x, y)
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
    def test_from_parts_moves_unit_first(self):
        base = fibonacci(0)
        rotated_s = [
            [base.s[1][1], base.s[1][0]],
            [base.s[0][1], base.s[0][0]],
        ]
        data = ModularData.from_parts(
            5, ("t", "1"), rotated_s, (2, 0), unit_index=1
        )
        assert data.labels == ("1", "t")
        assert data.s == base.s
        assert data.t_exponents == base.t_exponents


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
                                assert tp.n(
                                    x1 * rb + x2, y1 * rb + y2, z1 * rb + z2
                                ) == ta.n(x1, y1, z1) * tb.n(x2, y2, z2)


class TestFusionTableInvariants:
    @pytest.mark.parametrize("name", ["fibonacci", "ising", "pointed_z4", "sl2_7_ad"])
    def test_unit_row_and_duality(self, name, fixture_catalog):
        data = fixture_catalog[name]
        table = data.fusion
        r = data.rank
        for x in range(r):
            for z in range(r):
                assert table.n(x, 0, z) == (1 if x == z else 0)
                assert table.n(x, z, 0) == (1 if z == table.dual[x] else 0)

    @pytest.mark.parametrize("name", ["fibonacci", "ising", "sl2_7_ad", "fib_x_fib"])
    def test_associativity(self, name, fixture_catalog):
        table = fixture_catalog[name].fusion
        r = table.rank
        for x in range(r):
            for y in range(r):
                for z in range(r):
                    for v in range(r):
                        lhs = sum(table.n(x, y, w) * table.n(w, z, v) for w in range(r))
                        rhs = sum(table.n(y, z, w) * table.n(x, w, v) for w in range(r))
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

        below = (1 << MAX_ENTRY_BITS) - 1
        for num, den in ((below, 1), (-below, 1), (1, below)):
            assert loads_modular_data(doc(num, den)).s[0][0].as_rational() == Fraction(num, den)
        for num, den in ((below + 1, 1), (-below - 1, 1), (1, below + 1)):
            with pytest.raises(InvalidModularData, match=rf"2\^{MAX_ENTRY_BITS} or more"):
                loads_modular_data(doc(num, den))
