"""Modular data containers: the (s, t) pair, its validation contract,
derived quantities, fusion coefficients, and Deligne products.

A ``ModularData`` holds the conductor N (the order of t), the rank r,
display labels, the symmetric r x r s-matrix over Q(zeta_N), and the
twist exponents e_X with t_X = zeta_N^(e_X).  The unit object sits at
index 0 (``from_parts`` rotates arbitrary input into this convention).

Everything here is exact.  Fusion coefficients are reconstructed from
the characters Y -> s_{Y,X} / s_{0,X}; a coefficient that fails to
canonicalize to a nonnegative rational integer is a data error, not a
tolerance problem.

The file format (``save`` / ``load``) is JSON with fields ``conductor``,
``rank``, ``labels``, ``t`` and ``s``, where each s-entry is a list of
``[num, den, exp]`` terms meaning (num/den) * zeta_N^exp, summed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cyclotomic import (
    CycNum,
    numeric_value,
    root_of_unity,
    sign_of_real,
)

__all__ = [
    "FusionTable",
    "InvalidModularData",
    "ModularData",
    "ValidationReport",
    "deligne_product",
    "dump_modular_data",
    "load_modular_data",
    "loads_modular_data",
    "save_modular_data",
]


class InvalidModularData(ValueError):
    """The data violates the modular-data contract."""


@dataclass(frozen=True)
class FusionTable:
    """Verlinde coefficients N_{xy}^z and the dual (charge conjugation)
    permutation.  coeffs[x][y][z] is a nonnegative integer."""

    coeffs: tuple[tuple[tuple[int, ...], ...], ...]
    dual: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def n(self, x: int, y: int, z: int) -> int:
        return self.coeffs[x][y][z]

    def matrix(self, x: int) -> list[list[int]]:
        """The fusion matrix of x: rows indexed by y, columns by z."""
        return [list(row) for row in self.coeffs[x]]

    def support(self, x: int, y: int) -> tuple[int, ...]:
        return tuple(z for z, n in enumerate(self.coeffs[x][y]) if n)


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple[str, ...]
    skipped: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            note = f" ({len(self.skipped)} check(s) skipped)" if self.skipped else ""
            return "valid" + note
        return "; ".join(self.failures)


@dataclass(frozen=True, eq=False)
class ModularData:
    conductor: int
    rank: int
    labels: tuple[str, ...]
    s: tuple[tuple[CycNum, ...], ...]
    t_exponents: tuple[int, ...]

    def __post_init__(self):
        r = self.rank
        if len(self.labels) != r or len(self.s) != r or len(self.t_exponents) != r:
            raise ValueError("rank does not match row/label/twist counts")
        for row in self.s:
            if len(row) != r:
                raise ValueError("s is not square")
            for entry in row:
                if entry.conductor != self.conductor:
                    raise ValueError("s entry conductor differs from declared conductor")
        object.__setattr__(
            self, "t_exponents", tuple(e % self.conductor for e in self.t_exponents)
        )

    @classmethod
    def from_parts(cls, conductor, labels, s_rows, t_exponents, unit_index=0):
        """Build from raw rows, rotating the unit object to index 0."""
        r = len(labels)
        order = [unit_index] + [i for i in range(r) if i != unit_index]
        labels = tuple(labels[i] for i in order)
        s = tuple(tuple(s_rows[i][j] for j in order) for i in order)
        t = tuple(t_exponents[i] for i in order)
        return cls(conductor, r, labels, s, t)

    # -- cached views ---------------------------------------------------

    @cached_property
    def dims(self) -> tuple[CycNum, ...]:
        return tuple(self.s[0])

    @cached_property
    def conj_s(self) -> tuple[tuple[CycNum, ...], ...]:
        return tuple(tuple(v.conjugate() for v in row) for row in self.s)

    @cached_property
    def character_columns(self) -> tuple[tuple[CycNum, ...], ...]:
        """columns[Y][X] = s_{X,Y} / s_{0,Y}, the character of the
        Grothendieck ring attached to Y evaluated at X."""
        cols = []
        for y in range(self.rank):
            d = self.s[0][y]
            if d.is_zero:
                raise InvalidModularData(f"zero dimension at index {y}")
            inv = d.inverse()
            cols.append(tuple(self.s[x][y] * inv for x in range(self.rank)))
        return tuple(cols)

    @cached_property
    def column_index(self) -> dict[tuple[CycNum, ...], int]:
        idx = {col: y for y, col in enumerate(self.character_columns)}
        if len(idx) != self.rank:
            raise InvalidModularData("character columns are not distinct")
        return idx

    def twist(self, x: int) -> CycNum:
        return root_of_unity(self.conductor, self.t_exponents[x])

    # -- derived scalars ------------------------------------------------

    @cached_property
    def global_dim(self) -> CycNum:
        total = CycNum.zero(self.conductor)
        for d in self.dims:
            total = total + d * d
        return total

    def tau(self) -> CycNum:
        total = CycNum.zero(self.conductor)
        for x, d in enumerate(self.dims):
            total = total + self.twist(x) * d * d
        return total

    def central_charge_squared(self) -> CycNum:
        """xi^2 = tau^2 / dim(C), exact."""
        t = self.tau()
        return t * t * self.global_dim.inverse()

    # -- charge conjugation and fusion -----------------------------------

    @cached_property
    def charge_conjugation(self) -> tuple[int, ...]:
        """The permutation C with s^2 = dim(C) * C; C^2 = 1."""
        r = self.rank
        dim = self.global_dim
        zero = CycNum.zero(self.conductor)
        perm = [-1] * r
        for i in range(r):
            hits = []
            for j in range(r):
                acc = zero
                for a in range(r):
                    acc = acc + self.s[i][a] * self.s[a][j]
                if acc == dim:
                    hits.append(j)
                elif not acc.is_zero:
                    raise InvalidModularData(
                        f"s^2 entry ({i},{j}) is neither 0 nor dim(C)"
                    )
            if len(hits) != 1:
                raise InvalidModularData(f"s^2 row {i} is not a permutation row")
            perm[i] = hits[0]
        if any(perm[perm[i]] != i for i in range(r)):
            raise InvalidModularData("charge conjugation does not square to identity")
        return tuple(perm)

    @cached_property
    def fusion(self) -> FusionTable:
        return self._verlinde()

    def _verlinde(self) -> FusionTable:
        r = self.rank
        cols = self.character_columns
        dim_inv = self.global_dim.inverse()
        # weight w_a = s_{0,a}^2 / dim: N_{xy}^z = sum_a chi_x(a) chi_y(a) conj(chi_z(a)) w_a
        weights = [self.s[0][a] * self.s[0][a] * dim_inv for a in range(r)]
        conj_cols = [tuple(v.conjugate() for v in cols[a]) for a in range(r)]
        coeffs = [[[0] * r for _ in range(r)] for _ in range(r)]
        for x in range(r):
            for y in range(x, r):
                prods = [cols[a][x] * cols[a][y] * weights[a] for a in range(r)]
                for z in range(r):
                    acc = CycNum.zero(self.conductor)
                    for a in range(r):
                        acc = acc + prods[a] * conj_cols[a][z]
                    if not acc.is_rational_integer:
                        raise InvalidModularData(
                            f"fusion coefficient N({x},{y})^{z} is not an integer"
                        )
                    n = int(acc.as_rational())
                    if n < 0:
                        raise InvalidModularData(
                            f"fusion coefficient N({x},{y})^{z} = {n} is negative"
                        )
                    coeffs[x][y][z] = n
                    coeffs[y][x][z] = n
        dual = [-1] * r
        for x in range(r):
            hits = [z for z in range(r) if coeffs[x][z][0]]
            if len(hits) != 1 or coeffs[x][hits[0]][0] != 1:
                raise InvalidModularData(f"object {x} has no unique dual")
            dual[x] = hits[0]
        table = FusionTable(
            tuple(tuple(tuple(row) for row in plane) for plane in coeffs), tuple(dual)
        )
        return table

    # -- Frobenius-Perron dimensions --------------------------------------

    def fp_dims(self, cross_check: bool = False) -> tuple[CycNum, ...]:
        """FPdim(X) = s_{X,Y0} / s_{0,Y0} where Y0 is the unique column
        whose characters are all real and positive.

        With cross_check=True the values are compared against the Perron
        eigenvalues of the fusion matrices within certified numeric
        bounds (requires the fusion table; use on modest ranks).
        """
        cols = self.character_columns
        candidates = []
        for y in range(self.rank):
            ok = True
            for v in cols[y]:
                if v.conjugate() != v or sign_of_real(v) <= 0:
                    ok = False
                    break
            if ok:
                candidates.append(y)
        if len(candidates) != 1:
            raise InvalidModularData(
                f"expected one totally positive column, found {candidates}"
            )
        fp = cols[candidates[0]]
        if cross_check:
            self._perron_cross_check(fp)
        return fp

    def _perron_cross_check(self, fp, tol: float = 1e-8) -> None:
        import numpy as np

        table = self.fusion
        for x in range(self.rank):
            mat = np.array(table.matrix(x), dtype=float)
            radius = max(abs(w) for w in np.linalg.eigvals(mat))
            approx = numeric_value(fp[x]).real
            if abs(radius - approx) > tol * max(1.0, abs(approx)):
                raise InvalidModularData(
                    f"FPdim({x}) = {approx} does not match Perron value {radius}"
                )

    # -- validation -------------------------------------------------------

    def validate(self, full_rank_bound: int = 24) -> ValidationReport:
        """Check every structural invariant, collecting all failures.

        The O(r^3)+ checks (unitarity, s^2 permutation, Verlinde
        integrality) run only when rank <= full_rank_bound and are
        reported as skipped otherwise.
        """
        failures: list[str] = []
        skipped: list[str] = []
        r = self.rank
        n = self.conductor

        for i in range(r):
            for j in range(i + 1, r):
                if self.s[i][j] != self.s[j][i]:
                    failures.append(f"s not symmetric at ({i},{j})")
        if self.s[0][0] != 1:
            failures.append("s[0][0] != 1")
        if self.t_exponents[0] % n != 0:
            failures.append("unit object has a nontrivial twist")
        t_order = 1
        for e in self.t_exponents:
            t_order = math.lcm(t_order, n // math.gcd(n, e))
        if t_order != n:
            failures.append(f"lcm of twist orders is {t_order}, conductor is {n}")
        for x, d in enumerate(self.dims):
            if d.is_zero:
                failures.append(f"zero dimension at index {x}")
            elif d.conjugate() != d:
                failures.append(f"dimension at index {x} is not real")

        if failures:
            return ValidationReport(tuple(failures), tuple(skipped))

        if r > full_rank_bound:
            skipped.append(f"unitarity, s^2 and fusion checks (rank {r} > bound)")
            return ValidationReport(tuple(failures), tuple(skipped))

        dim = self.global_dim
        zero = CycNum.zero(n)
        for i in range(r):
            for j in range(i, r):
                acc = zero
                for a in range(r):
                    acc = acc + self.s[i][a] * self.conj_s[j][a]
                want = dim if i == j else zero
                if acc != want:
                    failures.append(f"s * conj(s)^T fails at ({i},{j})")
        try:
            conj_perm = self.charge_conjugation
        except InvalidModularData as exc:
            failures.append(str(exc))
            conj_perm = None
        try:
            table = self.fusion
            if conj_perm is not None and table.dual != conj_perm:
                failures.append("s^2 permutation differs from the Verlinde dual")
        except InvalidModularData as exc:
            failures.append(str(exc))
        return ValidationReport(tuple(failures), tuple(skipped))


# -- Deligne product -------------------------------------------------------


def deligne_product(a: ModularData, b: ModularData) -> ModularData:
    """Kronecker product of the modular data, conductor lcm(N_a, N_b)."""
    n = math.lcm(a.conductor, b.conductor)
    sa = [[v.embed(n) for v in row] for row in a.s]
    sb = [[v.embed(n) for v in row] for row in b.s]
    ka, kb = n // a.conductor, n // b.conductor
    rank = a.rank * b.rank
    labels = []
    t_exp = []
    for i in range(a.rank):
        for j in range(b.rank):
            labels.append(f"({a.labels[i]},{b.labels[j]})")
            t_exp.append((a.t_exponents[i] * ka + b.t_exponents[j] * kb) % n)
    s = []
    for i in range(a.rank):
        for j in range(b.rank):
            row = []
            for k in range(a.rank):
                for l in range(b.rank):
                    row.append(sa[i][k] * sb[j][l])
            s.append(tuple(row))
    return ModularData(n, rank, tuple(labels), tuple(s), tuple(t_exp))


# -- file format ------------------------------------------------------------


def _entry_terms(v: CycNum) -> list[list[int]]:
    return [
        [c.numerator, c.denominator, i] for i, c in enumerate(v.coeffs) if c
    ]


def dump_modular_data(data: ModularData) -> str:
    doc = {
        "conductor": data.conductor,
        "rank": data.rank,
        "labels": list(data.labels),
        "t": list(data.t_exponents),
        "s": [[_entry_terms(v) for v in row] for row in data.s],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def loads_modular_data(text: str) -> ModularData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidModularData(f"not parseable as modular data: {exc}") from exc
    try:
        n = int(doc["conductor"])
        rank = int(doc["rank"])
        labels = tuple(str(x) for x in doc["labels"])
        t = tuple(int(x) for x in doc["t"])
        rows = doc["s"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModularData(f"missing or malformed field: {exc}") from exc
    if n < 1:
        raise InvalidModularData(f"conductor must be >= 1, got {n}")
    if not isinstance(rows, list) or len(rows) != rank or any(
        not isinstance(row, list) or len(row) != rank for row in rows
    ):
        raise InvalidModularData("s is not a rank x rank array")
    s = tuple(tuple(_loads_entry(n, entry) for entry in row) for row in rows)
    try:
        return ModularData(n, rank, labels, s, t)
    except ValueError as exc:
        raise InvalidModularData(str(exc)) from exc


def _loads_entry(n: int, entry) -> CycNum:
    """One s-entry from its list of [num, den, exp] integer terms."""
    if not isinstance(entry, list) or not all(
        isinstance(term, list) and len(term) == 3 and all(type(v) is int for v in term)
        for term in entry
    ):
        raise InvalidModularData(
            f"an s-entry must be a list of [num, den, exp] integer terms, got {entry!r}"
        )
    if any(den == 0 for _, den, _ in entry):
        raise InvalidModularData(f"zero denominator in s-entry {entry!r}")
    return CycNum.from_terms(n, ((Fraction(num, den), exp) for num, den, exp in entry))


def save_modular_data(data: ModularData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_modular_data(data))


def load_modular_data(path) -> ModularData:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_modular_data(fh.read())
