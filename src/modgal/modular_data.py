"""Modular data containers: the (s, t) pair, its validation contract,
derived quantities, fusion coefficients, and Deligne products.

A ``ModularData`` holds the conductor N (the order of t), the rank r,
display labels, the symmetric r x r s-matrix over Q(zeta_N), and the
twist exponents e_X with t_X = zeta_N^(e_X).  The unit object sits at
index 0 (``from_parts`` rotates arbitrary input into this convention).

Everything here is exact or certified.  Every identity in the entries
of s is checked over split primes (``_splitprime``), on one residue
view per datum (``_residues``): s is imaged once per split prime, when
an identity first asks for that prime, and every later identity of
the datum reads the kept image, which lives and dies with the datum.
Here the fusion coefficients are read modulo a split prime and then
certified by exact identities in every embedding slot of enough
primes; a coefficient that is not a nonnegative rational integer is a
data error, not a tolerance problem, and it is named from its exact
defining sum.  No character table is built: ``fp_dims`` reads which
columns are real from the dual permutation, finds its column among
them by signs and divides that one column by its dimension.

The file format (``save`` / ``load``) is JSON with fields ``conductor``,
``rank``, ``labels``, ``t`` and ``s``, where each s-entry is a list of
``[num, den, exp]`` terms meaning (num/den) * zeta_N^exp, summed.
``save`` writes one line, keys sorted, no spaces, and each term in
lowest terms at a power-basis exponent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import accumulate, chain, product

from ._splitprime import Residues, certified_verlinde
from .cyclotomic import CycNum, _fold_terms, dot, root_of_unity, sign_of_real

__all__ = [
    "FusionTable",
    "InvalidModularData",
    "MAX_CONDUCTOR",
    "MAX_ENTRY_BITS",
    "MAX_RANK",
    "ModularData",
    "ValidationReport",
    "check_entry_bits",
    "deligne_product",
    "dump_modular_data",
    "load_modular_data",
    "loads_modular_data",
    "save_modular_data",
]


class InvalidModularData(ValueError):
    """The data violates the modular-data contract.  ``failures`` lists
    each violation; the message joins them."""

    def __init__(self, *failures: str):
        super().__init__("; ".join(failures))
        self.failures = failures


# The largest conductor the loader accepts.  ``_Field(N)`` holds about
# N * phi(N) ints, so a file may not ask for an unbounded table; every
# conductor the fixtures, builders, tests and benchmark write is far
# below this.
MAX_CONDUCTOR = 1024

# The largest rank the loader accepts and ``product`` writes.  The
# certified Verlinde table costs O(phi(N) r^4) float64 products; see
# CHANGES.md for the ``validate`` times this bound was sized from.
MAX_RANK = 64

# The loader refuses, and ``product`` does not write, an s-entry with a
# numerator or denominator of 2^MAX_ENTRY_BITS or more; that keeps every
# certificate bound below the split primes (argued in
# ``_splitprime.primes_over``) and the numerators in int64.  Catalog
# coefficients are at most 3 in size.
MAX_ENTRY_BITS = 32


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


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return "; ".join(self.failures) if self.failures else "valid"


@dataclass(frozen=True, eq=False)
class ModularData:
    conductor: int
    rank: int
    labels: tuple[str, ...]
    s: tuple[tuple[CycNum, ...], ...]
    t_exponents: tuple[int, ...]

    def __post_init__(self):
        r = self.rank
        if r < 1:
            raise ValueError(f"rank must be >= 1, got {r}")
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
    def _memo(self) -> dict:
        """Results of ``memoized_on_datum`` functions of this datum."""
        return {}

    @cached_property
    def dims(self) -> tuple[CycNum, ...]:
        return tuple(self.s[0])

    def twist(self, x: int) -> CycNum:
        return root_of_unity(self.conductor, self.t_exponents[x])

    # -- derived scalars ------------------------------------------------

    @cached_property
    def global_dim(self) -> CycNum:
        return dot(self.dims, self.dims)

    def tau(self) -> CycNum:
        return dot((self.twist(x) * d for x, d in enumerate(self.dims)), self.dims)

    def central_charge_squared(self) -> CycNum:
        """xi^2 = tau^2 / dim(C), exact."""
        t = self.tau()
        return t * t * self.global_dim.inverse()

    # -- charge conjugation and fusion -----------------------------------

    @cached_property
    def charge_conjugation(self) -> tuple[int, ...]:
        """The permutation C with s^2 = dim(C) * C, which is the dual
        permutation of the Verlinde table (argued in ``validate``)."""
        return self.fusion.dual

    @cached_property
    def fusion(self) -> FusionTable:
        return self._verlinde()

    def _verlinde(self) -> FusionTable:
        """N_xy^z = sum_a s_xa s_ya conj(s_za) / (s_0a dim(C)), read in one
        split-prime slot and certified in all of them.

        ``certified_verlinde`` proves or refutes s conj(s)^T = dim(C) I
        and s_xa s_ya = s_0a sum_z N_xy^z s_za for the candidate N.  Once
        the first holds, s is invertible, and multiplying the second by
        conj(s_wa) / dim(C) and summing over a gives the defining sum of
        N_xy^w: the candidate is the table.  Where an identity fails, the
        coefficients it concerns are computed exactly, one ``dot`` each,
        in the order x <= y, z, so the first coefficient that is not a
        nonnegative integer is the one named; the r weights
        1 / (s_0a dim(C)) are built, from one inverse, only when a
        Verlinde row fails.  If unitarity fails, those coefficients are
        N_0x^y = (s conj(s)^T)_xy / dim(C) over the failing pairs, which is the
        rational integer n exactly when (s conj(s)^T)_xy = n dim(C), with
        n read off one nonzero power-basis coordinate of dim(C): no
        inverse.  If each of them is a nonnegative integer, the failing
        pairs are reported, since without unitarity the other rows are
        not tied to the identities.  The first failure of
        ``_table_preconditions`` is raised before any of this
        (``_residues``), and a ValueError where the split primes cannot
        certify (``certified_verlinde``).
        """
        r, s = self.rank, self.s
        table, bad_pairs, bad_rows = certified_verlinde(self._residues)
        if bad_pairs:
            dim = self.global_dim
            i = next(i for i, c in enumerate(dim.num) if c)
            for x, y in sorted(bad_pairs):
                gram = dot(s[x], map(CycNum.conjugate, s[y])).num
                n, rem = divmod(gram[i], dim.num[i])
                exact = not rem and gram == tuple(n * c for c in dim.num)
                _check_coefficient(0, x, y, n if exact else None)
            raise InvalidModularData(*(
                f"s * conj(s)^T fails at ({x},{y})" for x, y in sorted(bad_pairs) if x <= y
            ))
        if bad_rows:
            weights = self._verlinde_weights()
        coeffs = table.tolist()
        for x in range(r):
            for y in range(x, r):
                row = coeffs[x][y]
                if (x, y) in bad_rows:
                    scaled = [s[x][a] * s[y][a] * weights[a] for a in range(r)]
                for z in range(r):
                    if (x, y) in bad_rows:
                        acc = dot(scaled, map(CycNum.conjugate, s[z]))
                        row[z] = int(acc.as_rational()) if acc.is_rational_integer else None
                    _check_coefficient(x, y, z, row[z])
                coeffs[y][x] = row
        dual = [-1] * r
        for x in range(r):
            hits = [z for z in range(r) if coeffs[x][z][0]]
            if len(hits) != 1 or coeffs[x][hits[0]][0] != 1:
                raise InvalidModularData(f"object {x} has no unique dual")
            dual[x] = hits[0]
        return FusionTable(
            tuple(tuple(tuple(row) for row in plane) for plane in coeffs), tuple(dual)
        )

    def _verlinde_weights(self) -> list[CycNum]:
        """The r weights 1 / (d_a dim(C)) from one inverse.  With
        P_a = d_0 ... d_(a-1) and inv = 1 / (dim(C) P_(a+1)), the weight
        of a is P_a inv, and inv d_a = 1 / (dim(C) P_a) is the inv of
        a - 1: one inverse, of dim(C) P_r, serves all r, from a = r - 1
        down."""
        prefix = list(accumulate(self.dims, CycNum.__mul__, initial=CycNum.one(self.conductor)))
        inv, weights = (prefix.pop() * self.global_dim).inverse(), []
        for d, p in zip(self.dims[::-1], prefix[::-1]):
            weights.append(p * inv)
            inv = inv * d
        return weights[::-1]

    @cached_property
    def _table_preconditions(self) -> tuple[str, ...]:
        """What the split-prime identities need of s: nonzero, real
        dimensions and entries in Z[zeta_N] (denominator 1 on the power
        basis) with coefficients below 2^MAX_ENTRY_BITS, so that they fit
        int64 (``_residues``).  The failures, found once per datum."""
        failures = []
        for x, d in enumerate(self.dims):
            if d.is_zero:
                failures.append(f"zero dimension at index {x}")
            elif d.conjugate() != d:
                failures.append(f"dimension at index {x} is not real")
        for x, row in enumerate(self.s):
            for y, v in enumerate(row):
                if v.den != 1:
                    failures.append(f"s-entry ({x},{y}) is not in Z[zeta_N]")
                elif max(map(abs, v.num)).bit_length() > MAX_ENTRY_BITS:
                    failures.append(_oversize(x, y))
        return tuple(failures)

    @cached_property
    def _residues(self) -> Residues:
        """The residue view of s that every split-prime identity of this
        datum reads: the coefficients on the power basis as int64, shape
        (r, r, phi), and their image at each split prime, built once.
        Raises the first failure of ``_table_preconditions``, without
        which the coefficients are not those of s or do not fit int64."""
        for failure in self._table_preconditions:
            raise InvalidModularData(failure)
        return Residues([[v.num for v in row] for row in self.s], self.conductor)

    # -- Frobenius-Perron dimensions --------------------------------------

    @cached_property
    def fp_dims(self) -> tuple[CycNum, ...]:
        """FPdim(X) = s_{X,Y0} / s_{0,Y0} where Y0 is the unique column
        whose characters s_{X,Y} / s_{0,Y} are all real and positive.

        d_Y = s_{0,Y} is real and nonzero (``_table_preconditions``), so
        s_{X,Y} / d_Y is real and positive exactly when s_{X,Y} is real
        and has the sign of d_Y: the search divides by nothing and signs
        d_Y once per column.  No entry is conjugated: ``fusion``
        certifies s conj(s)^T = dim(C) I and, as d_Y is real,
        s s^T = dim(C) C for the dual permutation C (``validate``).  So
        conj(s)^T = dim(C) s^-1 = s^T C, that is, conj(s_XY) = s_{X*,Y},
        and column Y is real exactly when s_{X*,Y} = s_{X,Y} for every
        X, a comparison of coefficients.  For symmetric s, as
        ``validate`` demands, conj(s_XY) = s_{X,Y*}; s is invertible, so
        its columns are distinct, and the real columns are exactly the
        self-dual ones, Y* = Y.

        The first column that qualifies is Y0.  As s^-1 = conj(s)^T /
        dim(C) is also a right inverse, conj(s)^T s = dim(C) I, so two
        real columns Y != Y' have sum_X s_XY s_XY' = 0.  Were both
        totally positive, every term of that sum would be nonzero with
        the sign of d_Y d_Y', so at most one column qualifies and the
        search stops at it.  Only column Y0 is divided by d_Y0, with no
        inverse when d_Y0 = 1, as at Y0 = 0, since s_00 = 1.  Raises the
        first failure of ``fusion``."""
        s, dual = self.s, self.charge_conjugation
        for y, d in enumerate(self.dims):
            sign = sign_of_real(d)
            if all(s[dual[x]][y] == s[x][y] and sign_of_real(s[x][y]) == sign
                   for x in range(1, self.rank)):
                break
        else:
            raise InvalidModularData("expected one totally positive column, found []")
        column = tuple(row[y] for row in s)
        if d == 1:
            return column
        inv = d.inverse()
        return tuple(v * inv for v in column)

    # -- validation -------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check every structural invariant.

        Phase 1 collects every failure of the cheap checks: s is
        symmetric, s_00 = 1, t_0 = 1, the twist orders have lcm N, every
        dimension s_0x is nonzero and real, and every s-entry lies in
        Z[zeta_N] with coefficients below 2^MAX_ENTRY_BITS (the loader
        refuses larger ones before this).  Phase 2 builds the certified
        Verlinde table at every rank: ``_verlinde`` proves or refutes
        unitarity, s conj(s)^T = dim(C) * I, and stops at the first
        coefficient that is not a nonnegative integer or the first object
        without a unique dual.  No check is skipped: every datum that passes has had each
        identity below proved exactly.

        * s^2 = dim(C) * C.  As s_0a is real, the sum in ``_verlinde``
          gives N_xy^0 = sum_a s_xa s_ya / dim(C) = (s s^T)_xy / dim(C).  The
          table demands exactly one nonzero N_xz^0 in each row x, equal
          to 1: that is, s^2 = s s^T is dim(C) times a permutation
          matrix, the dual permutation.  s s^T is symmetric, so that
          permutation is an involution; it is the charge conjugation.
        * The integrality check changes no verdict: a datum that passes
          every other check has s in Z[zeta_N].  Phase 1 checks s = s^T
          and s_00 = 1; phase 2 certifies s conj(s)^T = dim(C) * I and an
          integral table with sum_z N_xy^z s_zY = (s_xY / s_0Y) s_yY.  So
          the column (s_yY)_y, nonzero at y = 0, is an eigenvector of the
          integer matrix (N_xy^z)_(y,z) with eigenvalue s_xY / s_0Y, a
          root of a monic integer polynomial: an algebraic integer.  At
          Y = 0 it is s_x0 / s_00 = s_0x = d_x, so the dimensions are
          algebraic integers too, and so is s_xY = (s_xY / s_0Y) d_Y.  The
          algebraic integers of Q(zeta_N) are Z[zeta_N], with integral
          basis 1, zeta, ..., zeta^(phi-1): s_xY has denominator 1.
        """
        failures: list[str] = []
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
        # the lcm of the orders n/gcd(n, e): for divisors a, b of n,
        # lcm(n/a, n/b) = n/gcd(a, b)
        t_order = n // math.gcd(n, *self.t_exponents)
        if t_order != n:
            failures.append(f"lcm of twist orders is {t_order}, conductor is {n}")
        failures.extend(self._table_preconditions)
        if failures:
            return ValidationReport(tuple(failures))

        try:
            self.fusion
        except InvalidModularData as exc:
            return ValidationReport(exc.failures)
        return ValidationReport(())


def _check_coefficient(x: int, y: int, z: int, n: int | None) -> None:
    """Raise the failure that names the Verlinde coefficient N_xy^z = n
    when n is not a nonnegative integer (None: not an integer)."""
    if n is None:
        raise InvalidModularData(f"fusion coefficient N({x},{y})^{z} is not an integer")
    if n < 0:
        raise InvalidModularData(f"fusion coefficient N({x},{y})^{z} = {n} is negative")


def _oversize(x: int, y: int) -> str:
    return f"s-entry ({x},{y}) has a numerator or denominator of 2^{MAX_ENTRY_BITS} or more"


def memoized_on_datum(fn):
    """Decorate ``fn(data)`` so that its result is computed once per
    ``ModularData`` and kept in that datum's private memo.  The result
    lives exactly as long as the datum; a cache keyed on the datum
    would keep the datum alive after its last use."""
    key = fn.__qualname__

    @wraps(fn)
    def memoized(data: ModularData):
        memo = data._memo
        if key not in memo:
            memo[key] = fn(data)
        return memo[key]

    return memoized


# -- Deligne product -------------------------------------------------------


def deligne_product(a: ModularData, b: ModularData) -> ModularData:
    """Kronecker product of the modular data, conductor lcm(N_a, N_b)."""
    n = math.lcm(a.conductor, b.conductor)
    sa = [[v.embed(n) for v in row] for row in a.s]
    sb = [[v.embed(n) for v in row] for row in b.s]
    ka, kb = n // a.conductor, n // b.conductor
    pairs = list(product(range(a.rank), range(b.rank)))
    labels = tuple(f"({a.labels[i]},{b.labels[j]})" for i, j in pairs)
    t_exp = tuple((a.t_exponents[i] * ka + b.t_exponents[j] * kb) % n for i, j in pairs)
    s = tuple(tuple(sa[i][k] * sb[j][l] for k, l in pairs) for i, j in pairs)
    return ModularData(n, len(pairs), labels, s, t_exp)


# -- file format ------------------------------------------------------------


def _entry_terms(v: CycNum) -> list[list[int]]:
    gcds = [math.gcd(a, v.den) for a in v.num]
    return [[a // g, v.den // g, i] for i, (a, g) in enumerate(zip(v.num, gcds)) if a]


def dump_modular_data(data: ModularData) -> str:
    doc = {
        "conductor": data.conductor,
        "rank": data.rank,
        "labels": list(data.labels),
        "t": list(data.t_exponents),
        "s": [[_entry_terms(v) for v in row] for row in data.s],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads_modular_data(text: str) -> ModularData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidModularData(f"not parseable as modular data: {exc}") from exc
    try:
        n = doc["conductor"]
        rank = doc["rank"]
        labels = doc["labels"]
        t = doc["t"]
        rows = doc["s"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModularData(f"missing or malformed field: {exc}") from exc
    for name, value in (("conductor", n), ("rank", rank)):
        if type(value) is not int:
            raise InvalidModularData(f"{name} must be an integer, got {value!r}")
    if not isinstance(t, list) or not all(type(x) is int for x in t):
        raise InvalidModularData(f"t must be a list of integers, got {t!r}")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InvalidModularData(f"labels must be a list of strings, got {labels!r}")
    if not 1 <= n <= MAX_CONDUCTOR:
        raise InvalidModularData(f"conductor must be in 1..{MAX_CONDUCTOR}, got {n}")
    if rank > MAX_RANK:
        raise InvalidModularData(f"rank must be at most {MAX_RANK}, got {rank}")
    if not isinstance(rows, list) or len(rows) != rank or any(
        not isinstance(row, list) or len(row) != rank for row in rows
    ):
        raise InvalidModularData("s is not a rank x rank array")
    s = tuple(tuple(_loads_entry(n, entry) for entry in row) for row in rows)
    check_entry_bits(s)
    try:
        return ModularData(n, rank, tuple(labels), s, tuple(t))
    except ValueError as exc:
        raise InvalidModularData(str(exc)) from exc


def check_entry_bits(s) -> None:
    """Raise ``InvalidModularData`` at the first entry of the rows ``s``
    with a numerator or denominator of 2^MAX_ENTRY_BITS or more in size."""
    for x, row in enumerate(s):
        for y, v in enumerate(row):
            if max(v.den, *map(abs, v.num)).bit_length() > MAX_ENTRY_BITS:
                raise InvalidModularData(_oversize(x, y))


def _loads_entry(n: int, entry) -> CycNum:
    """One s-entry from its list of [num, den, exp] integer terms."""
    # JSON arrays decode to exact lists, so the type sets decide the shape
    if (
        type(entry) is not list
        or set(map(type, entry)) - {list}
        or set(map(len, entry)) - {3}
        or set(map(type, chain.from_iterable(entry))) - {int}
    ):
        raise InvalidModularData(
            f"an s-entry must be a list of [num, den, exp] integer terms, got {entry!r}"
        )
    dens = [d for _, d, _ in entry]
    if 0 in dens:
        raise InvalidModularData(f"zero denominator in s-entry {entry!r}")
    # over the lcm of the term denominators; a negative one flips its
    # term's sign through den // d, as Fraction(num, d) would
    den = math.lcm(*dens)
    return _fold_terms(n, ((num * (den // d), exp) for num, d, exp in entry), den)


def save_modular_data(data: ModularData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_modular_data(data))


def load_modular_data(path) -> ModularData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidModularData(f"not UTF-8 text: {exc}") from exc
    return loads_modular_data(text)
