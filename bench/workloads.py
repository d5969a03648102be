"""The benchmark's workloads: their inputs, their ops and each op's check.

An op is one call into a public entry point of ``modgal``.  For the
CLI verbs that is ``modgal.cli.main(argv)`` with stdout captured, on a
file written during set-up and loaded afresh by every call.  Every op
is checked; see ``README.md`` in this directory for where each
expected value comes from.

``setup(name, seed, work)`` writes the inputs under ``work`` and
returns ``pass_ops(i)``, the ops of pass ``i`` in an order shuffled by
the seed.  Modules are reached through their attributes
(``cli.main``, ``pointed.enumerate_quadratic_forms``) so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from modgal import cli, families, modular_data, pointed

WORKLOADS = ("catalog", "ladder", "pointed_sweep", "tables")

FIXTURES = (
    "fib_x_fib", "fib_x_fib_conj", "fibonacci", "fibonacci_conj", "ising",
    "pointed_z2z2", "pointed_z3", "pointed_z4", "pointed_z5", "semion",
    "sl2_11_ad", "sl2_12_A0", "sl2_13_ad", "sl2_5_ad", "sl2_7_ad",
    "so5_3half_ad", "trivial",
)
PRODUCTS = (
    ("fibonacci", "fibonacci_conj"),
    ("ising", "semion"),
    ("sl2_5_ad", "pointed_z3"),
    ("fibonacci", "sl2_7_ad"),
    ("pointed_z2z2", "pointed_z4"),
)
# Hand-written references, as stated in the acceptance suite:
# criterion 1 (orbit counts of the rank-1800 groups) ...
RANK_1800 = (
    ("2,30,30", 280), ("2,6,150", 120), ("2,10,90", 168), ("2,2,450", 72),
    ("30,60", 210), ("6,300", 90), ("10,180", 126), ("2,900", 54),
    ("15,120", 140), ("3,600", 60), ("5,360", 84), ("1800", 36),
)
# ... criterion 2 (four orbit partitions) ...
CRITERION_2 = {
    "fib_x_fib": [[0, 1], [2, 3]],
    "fib_x_fib_conj": [[0, 1], [2, 3]],
    "so5_3half_ad": [[0, 1, 2], [3, 4, 5]],
    "sl2_12_A0": [[0, 1, 2], [3, 4]],
}
# ... and criterion 3 (the sweep over groups of order <= 64).
SWEEP_ORDER_BOUND = 64
SWEEP_GROUPS = 117
SWEEP_FORMS = 9961
SWEEP_MAX_FORMS = 256

POINTED_FULL = ("4,4", "2,2,2,2", "8,8", "2,4,8", "64")
CATALOG_LEVELS = (32, 128, 27, 121, 1155)
# Levels that pass today, chosen so that tspectra does the work:
# 2^7 (tables 3-8), 11^3, 23^3 and 31^3 (tables 1-2 at lambda = 3)
# and 211^2 (tables 1-2 at lambda = 2).  The middle op takes most of a
# second, so op_p50_ms is not the time of a 2 ms op.
TABLE_LEVELS = (128, 1331, 12167, 44521, 29791)

# Ladder rungs, each built from one fixed Galois-conjugate variant of
# its factors (see _rung).  Conjugates differ in cost (sl2_19 takes
# 1.9-2.9 s across its 18 conjugates), so a seed-picked variant would
# move wall_s by more than a regression bound; the seed only shuffles
# the op order.
RUNGS = ("fib_x_sl2_7", "ising_x_sl2_7", "sl2_19_ad")
# Report fields kept by the regression snapshot; the ladder keeps only
# those that Galois conjugation preserves.
REPORT_FIELDS = (
    "orbits", "subcategory_count", "subcategory_sizes", "pointed_rank",
    "adjoint_rank", "orbit_bound", "pseudoinvertible",
)
LADDER_FIELDS = ("orbit_sizes", "subcategory_count", "subcategory_sizes")


@dataclass(frozen=True)
class Op:
    key: str  # unique within a pass; also the regression-snapshot key
    verb: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str | None, object]]  # (error, observation)


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue()

    return call


def _report_check(fields, reference=None):
    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}", None
        doc = json.loads(out)
        if doc.get("ok") is not True:
            return "report is not ok", None
        if reference is not None and doc.get("orbits") != reference:
            return f"orbits {doc.get('orbits')} differ from the reference {reference}", None
        return None, {f: doc.get(f) for f in fields}

    return check


_TABLES_SUMMARY = re.compile(r"^(\d+) rows checked, 0 failure\(s\)$")


def _tables_check(result):
    code, out = result
    lines = out.splitlines()
    if code != 0 or not lines:
        return f"exit code {code}", None
    match = _TABLES_SUMMARY.match(lines[-1])
    if match is None or any(not line.endswith(": pass") for line in lines[:-1]):
        return f"rows fail: {lines[-1]}", None
    return None, int(match.group(1))


def _tables_op(level: int) -> Op:
    return Op(f"tables {level}", "tables", _cli_call(["tables", "--check", str(level)]), _tables_check)


def _write(data, path: Path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    modular_data.save_modular_data(data, path)
    return str(path)


# -- catalog -------------------------------------------------------------


def _catalog(work: Path) -> list[Op]:
    data = {name: families.fixture(name) for name in FIXTURES}
    paths = {name: _write(d, work / "fixtures" / f"{name}.mtc") for name, d in data.items()}
    ops = []
    for name in FIXTURES:
        d, path = data[name], paths[name]
        want = f"{path}: valid (conductor {d.conductor}, rank {d.rank})\n"
        ops.append(Op(
            f"validate {name}", "validate", _cli_call(["validate", path]),
            lambda r, want=want: (None if r == (0, want) else f"output {r!r}", None),
        ))
        ops.append(Op(
            f"report {name}", "report", _cli_call(["report", "--json", path]),
            _report_check(REPORT_FIELDS, CRITERION_2.get(name)),
        ))
    (work / "products").mkdir(parents=True, exist_ok=True)
    for a, b in PRODUCTS:
        out = str(work / "products" / f"{a}__{b}.mtc")
        ref = modular_data.deligne_product(data[a], data[b])
        want = (0, f"wrote {out}: conductor {ref.conductor}, rank {ref.rank}\n")
        dump = modular_data.dump_modular_data(ref)
        ops.append(Op(
            f"product {a} {b}", "product",
            _cli_call(["product", paths[a], paths[b], "-o", out]),
            lambda r, want=want, out=out, dump=dump: (_product_error(r, want, out, dump), None),
        ))
    for group, count in RANK_1800:
        ops.append(Op(
            f"pointed --count-only {group}", "pointed",
            _cli_call(["pointed", group, "--count-only"]),
            lambda r, count=count: (
                None if r[0] == 0 and f": {count} orbits" in r[1] else f"output {r!r}",
                None,
            ),
        ))
    for group in POINTED_FULL:
        ops.append(Op(f"pointed {group}", "pointed", _cli_call(["pointed", group]), _pointed_check))
    ops.extend(_tables_op(level) for level in CATALOG_LEVELS)
    return ops


def _product_error(result, want, out: str, dump: str) -> str | None:
    if result != want:
        return f"output {result!r}"
    with open(out, encoding="utf-8") as fh:
        written = fh.read()
    os.remove(out)  # so that the next pass cannot pass on a stale file
    if written != dump:
        return "written file differs from the Deligne product of the inputs"
    return None


_ORBITS = re.compile(r"^orbits \((\d+)\):", re.M)


def _pointed_check(result):
    code, out = result
    match = _ORBITS.search(out)
    if code != 0 or match is None:
        return f"exit code {code}", None
    if not out.rstrip().endswith(": pass"):
        return "orbit routes disagree", None
    return None, int(match.group(1))


# -- ladder --------------------------------------------------------------


def _rung(name: str):
    if name == "fib_x_sl2_7":
        return modular_data.deligne_product(families.fibonacci(2), families.sl2_level_adjoint(7, 3))
    if name == "ising_x_sl2_7":
        return modular_data.deligne_product(families.ising(3), families.sl2_level_adjoint(7, 2))
    return families.sl2_level_adjoint(19, 2)


def _ladder(work: Path) -> list[Op]:
    return [
        Op(name, "report", _cli_call(["report", "--json", _write(_rung(name), work / f"{name}.mtc")]),
           _report_check(LADDER_FIELDS))
        for name in RUNGS
    ]


# -- pointed sweep ---------------------------------------------------------


def abelian_groups(order_bound: int) -> list[tuple[int, ...]]:
    """Invariant factors n_1 | n_2 | ... of every abelian group of order
    at most the bound, the trivial group first."""
    found: list[tuple[int, ...]] = [()]

    def chains(rest: int, top: int, acc: tuple[int, ...]):
        # acc is built from the largest factor down; each next one divides it
        if rest == 1:
            found.append(acc[::-1])
            return
        for f in range(2, top + 1):
            if rest % f == 0 and (not acc or acc[-1] % f == 0):
                chains(rest // f, f, acc + (f,))

    for order in range(2, order_bound + 1):
        chains(order, order, ())
    return found


def _sweep_call(group):
    def call():
        expected = pointed.generator_partition(group)
        count = pointed.cyclic_subgroup_count(group)
        forms = disagree = 0
        for form in pointed.enumerate_quadratic_forms(group, max_forms=SWEEP_MAX_FORMS):
            if pointed.pointed_orbit_partition(group, form) != expected:
                disagree += 1
            forms += 1
        return len(expected), count, forms, disagree

    return call


def _sweep_check(result):
    parts, count, forms, disagree = result
    if parts != count:
        return f"{parts} generator classes but a divisor sum of {count}", None
    if disagree or not forms:
        return f"{disagree} of {forms} forms disagree with the generator partition", None
    return None, forms


def _sweep() -> list[Op]:
    return [
        Op(",".join(map(str, facs)) or "1", "sweep",
           _sweep_call(pointed.FiniteAbelianGroup(facs)), _sweep_check)
        for facs in abelian_groups(SWEEP_ORDER_BOUND)
    ]


# -- entry point -----------------------------------------------------------


def setup(name: str, seed: int, work: Path) -> Callable[[int], list[Op]]:
    """Write the inputs of one workload; return the op list of each pass."""
    if name == "catalog":
        ops = _catalog(work)
    elif name == "ladder":
        ops = _ladder(work)
    elif name == "pointed_sweep":
        ops = _sweep()
    elif name == "tables":
        ops = [_tables_op(level) for level in TABLE_LEVELS]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return lambda i: _shuffled(ops, seed, i)


def _shuffled(ops: list[Op], seed: int, i: int) -> list[Op]:
    order = list(ops)
    random.Random(f"{seed}/{i}").shuffle(order)
    return order

