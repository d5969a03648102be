"""Command-line surface.

Subcommands::

    modgal validate <file>
    modgal report <file> [--json]
    modgal pointed <n1,n2,...> [--count-only] [--form <gram>]
    modgal tables --check <N>
    modgal product <a> <b> -o <out>
    modgal fixture <name> -o <out>

Exit codes: 0 pass, 1 check failure, 2 input error.  Input errors are
a missing or malformed ``.mtc`` file, one that cannot be read (a
directory, or no permission), or one whose conductor, rank or
s-entries are above ``MAX_CONDUCTOR``, ``MAX_RANK`` or ``MAX_ENTRY_BITS``
bits, or a datum whose identities the split primes cannot certify
(the message names the file); a ``product`` whose conductor, rank or
entries would exceed those bounds (nothing is written); a ``fixture``
name that is not one of the named fixtures; an output path
of ``product`` or ``fixture`` that cannot be written (a directory, or
one in a missing directory; the message names it); a ``pointed``
group of order above ``MAX_RANK`` without ``--count-only``; a
``pointed`` group whose exponent has a prime above
``pointed.MAX_COUNT_PRIME``, or whose count has more decimal digits
than the interpreter converts to a string
(``sys.get_int_max_str_digits``, 4,300 by default; the message states
the limit and names the group by its number of invariant factors and
its exponent); and a ``tables --check N`` with N < 1, with N
divisible by a level outside the verified t-spectra scope (2^lam
with lam >= 8, p^lam with p odd and lam >= 4), or with prime-power
levels that sum above ``tspectra.MAX_LEVEL_SUM``.  Data
that loads but breaks the modular-data contract, or fails a theorem
check of ``report``, is a check failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .analysis import run_analysis
from .families import fixture, fixture_names
from .galois_action import orbit_partition
from .modular_data import (
    MAX_CONDUCTOR,
    MAX_RANK,
    InvalidModularData,
    deligne_product,
    load_modular_data,
    save_modular_data,
)
from .pointed import (
    FiniteAbelianGroup,
    QuadraticFormSpec,
    build_pointed,
    canonical_form,
    cyclic_subgroup_count,
    generator_partition,
    pointed_orbit_partition,
)
from .tspectra import rows_for_levels, verify_rows

PASS, FAIL, USAGE = 0, 1, 2


class _InputError(Exception):
    pass


def _load(path):
    try:
        return load_modular_data(path)
    except FileNotFoundError:
        raise _InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}") from None
    except InvalidModularData as exc:
        raise _InputError(f"{path}: {exc}") from None


def _save(data, path) -> int:
    try:
        save_modular_data(data, path)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror}") from None
    print(f"wrote {path}: conductor {data.conductor}, rank {data.rank}")
    return PASS


def _cmd_validate(args) -> int:
    data = _load(args.file)
    report = data.validate()
    if report.ok:
        print(f"{args.file}: valid (conductor {data.conductor}, rank {data.rank})")
        return PASS
    print(f"{args.file}: INVALID")
    for failure in report.failures:
        print(f"  {failure}")
    return FAIL


def _cmd_report(args) -> int:
    data = _load(args.file)
    report = run_analysis(data, args.file)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return PASS if report.ok else FAIL


def _parse_group(text: str) -> FiniteAbelianGroup:
    try:
        factors = tuple(int(x) for x in text.split(","))
        factors = tuple(f for f in factors if f != 1)
        return FiniteAbelianGroup(factors)
    except ValueError as exc:
        raise _InputError(f"bad group {text!r}: {exc}") from None


def _parse_form(group: FiniteAbelianGroup, text: str) -> QuadraticFormSpec:
    try:
        rows = tuple(
            tuple(int(v) for v in row.split(",")) for row in text.split(";")
        )
        return QuadraticFormSpec(group, rows)
    except ValueError as exc:
        raise _InputError(f"bad form {text!r}: {exc}") from None


def _cmd_pointed(args) -> int:
    group = _parse_group(args.group)
    if args.count_only:
        count = cyclic_subgroup_count(group)
        try:
            text = str(count)
        except ValueError:
            raise _InputError(
                f"the orbit count of the group with {len(group.invariant_factors)} invariant "
                f"factors and exponent {group.exponent} has more than "
                f"{sys.get_int_max_str_digits()} decimal digits, the most that can be printed"
            ) from None
        print(f"{group}: {text} orbits")
        return PASS
    if group.order > MAX_RANK:
        raise _InputError(
            f"order {group.order} exceeds the rank bound {MAX_RANK}; use --count-only"
        )
    count = cyclic_subgroup_count(group)
    form = _parse_form(group, args.form) if args.form is not None else canonical_form(group)
    data = build_pointed(group, form)
    part = orbit_partition(data)
    fast = pointed_orbit_partition(group, form)
    agree = part.orbits == fast == generator_partition(group)
    print(f"{group}: conductor {data.conductor}, rank {data.rank}")
    print(f"orbits ({part.count}): " + " ".join(str(list(o)) for o in part.orbits))
    print(f"cyclic-subgroup count: {count}")
    print(
        "direct computation agrees with the generator partition and the "
        f"cyclic-subgroup count: {'pass' if agree and part.count == count else 'FAIL'}"
    )
    return PASS if agree and part.count == count else FAIL


def _cmd_tables(args) -> int:
    rows = rows_for_levels(args.check)
    if not rows:
        raise _InputError(f"no encoded rows at levels dividing {args.check}")
    verification = verify_rows(rows)
    for result in verification.results:
        status = "pass" if result.ok else "FAIL: " + "; ".join(result.failures)
        print(f"{result.row.describe()}: {status}")
    print(f"{verification.checked} rows checked, {len(verification.failures)} failure(s)")
    return PASS if verification.ok else FAIL


def _cmd_product(args) -> int:
    a = _load(args.a)
    b = _load(args.b)
    n = math.lcm(a.conductor, b.conductor)
    if n > MAX_CONDUCTOR:
        raise _InputError(
            f"the product of {args.a} and {args.b} would have conductor {n}, "
            f"above the bound {MAX_CONDUCTOR}"
        )
    if a.rank * b.rank > MAX_RANK:
        raise _InputError(
            f"the product of {args.a} and {args.b} would have rank "
            f"{a.rank * b.rank}, above the bound {MAX_RANK}"
        )
    try:
        prod = deligne_product(a, b)
    except InvalidModularData as exc:
        raise _InputError(f"the product of {args.a} and {args.b}: {exc}") from None
    return _save(prod, args.output)


def _cmd_fixture(args) -> int:
    try:
        data = fixture(args.name)
    except KeyError as exc:
        raise _InputError(exc.args[0]) from None
    return _save(data, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modgal",
        description="Exact Galois-orbit and subcategory analysis of modular data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a modular data file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("report", help="full analysis of a modular data file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(run=_cmd_report)

    p = sub.add_parser("pointed", help="pointed data from invariant factors")
    p.add_argument("group", help="comma-separated invariant factors, e.g. 2,30,30")
    p.add_argument("--count-only", action="store_true",
                   help="only count the orbits, as the cyclic subgroups")
    p.add_argument("--form", help="Gram rows, e.g. '1' or '1,0;0,1'")
    p.set_defaults(run=_cmd_pointed)

    p = sub.add_parser("tables", help="verify encoded t-spectra table rows")
    p.add_argument("--check", type=int, required=True, metavar="N",
                   help="verify rows whose level divides N")
    p.set_defaults(run=_cmd_tables)

    p = sub.add_parser("product", help="Deligne product of two data files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(run=_cmd_product)

    p = sub.add_parser("fixture", help="write a named fixture to a file")
    p.add_argument("name", help=", ".join(fixture_names()))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(run=_cmd_fixture)

    return parser


# built once per process: ``main`` is called many times in one process
# by in-process callers, and building takes about as long as a small verb
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except InvalidModularData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except ValueError as exc:
        # in validate or report (the split primes cannot certify an
        # identity), the message names the file; in pointed, a form
        # that ``build_pointed`` refuses
        where = f"{args.file}: " if "file" in args else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
