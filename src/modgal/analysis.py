"""Assemble the full analysis of one modular datum into a report that
renders as deterministic text or JSON."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .galois_action import (
    dims_ratio_check,
    orbit_partition,
    square_twist_consistency,
)
from .modular_data import ModularData
from .subcategories import (
    adjoint_part,
    all_subcategories,
    check_orbit_lower_bound,
    check_theorem_galois_closure,
    orbitwise_pseudoinvertible,
    pointed_part,
    pseudoinvertibles,
    two_orbit_diagnosis,
)

__all__ = ["AnalysisReport", "run_analysis"]


@dataclass(frozen=True)
class AnalysisReport:
    source: str
    conductor: int
    rank: int
    valid: bool
    validation: str
    orbits: tuple[tuple[int, ...], ...] = ()
    orbit_sizes: tuple[int, ...] = ()
    transitive: bool = False
    # the fields from here on keep their defaults on invalid data
    pointed_rank: int | None = None
    adjoint_rank: int | None = None
    subcategory_count: int | None = None
    subcategory_sizes: tuple[int, ...] = ()
    closure_theorem_ok: bool | None = None
    orbit_bound: tuple[int, int] | None = None  # (bound, actual)
    pseudoinvertible: tuple[int, ...] = ()
    orbitwise_pseudoinvertible: bool | None = None
    square_twist_ok: bool | None = None
    dims_ratio_ok: bool | None = None
    diagnosis: str = ""
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.valid and all((
            self.closure_theorem_ok,
            self.square_twist_ok,
            self.dims_ratio_ok,
            self.orbit_bound[1] >= self.orbit_bound[0],
        ))

    def to_text(self) -> str:
        lines = [f"input: {self.source}"]
        lines.append(f"conductor {self.conductor}, rank {self.rank}")
        lines.append(f"validation: {self.validation}")
        if not self.valid:
            return "\n".join(lines) + "\n"
        sizes = "+".join(str(s) for s in self.orbit_sizes)
        lines.append(f"orbits ({sizes}): " + " ".join(str(list(o)) for o in self.orbits))
        lines.append(f"transitive: {'yes' if self.transitive else 'no'}")
        lines.append(f"pointed rank {self.pointed_rank}, adjoint rank {self.adjoint_rank}")
        lines.append(
            f"fusion subcategories: {self.subcategory_count} "
            f"(sizes {', '.join(map(str, self.subcategory_sizes))})"
        )
        lines.append(
            "galois closure <=> integral centralizer: " + _pf(self.closure_theorem_ok)
        )
        b, a = self.orbit_bound
        lines.append(f"orbit count {a} >= pointed lower bound {b}: {_pf(a >= b)}")
        lines.append(
            "pseudoinvertible objects: "
            + (str(list(self.pseudoinvertible)) if self.pseudoinvertible else "none")
        )
        lines.append(
            "every orbit meets a pseudoinvertible: "
            + ("yes (pointed (x) transitive factorization shape)"
               if self.orbitwise_pseudoinvertible else "no")
        )
        lines.append(f"square twist consistency: {_pf(self.square_twist_ok)}")
        lines.append(f"dimension ratio identity: {_pf(self.dims_ratio_ok)}")
        if self.diagnosis:
            lines.append(f"two-orbit diagnosis: {self.diagnosis}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {**asdict(self), "ok": self.ok}
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _pf(v: bool) -> str:
    return "pass" if v else "FAIL"


def run_analysis(data: ModularData, source: str) -> AnalysisReport:
    """Validate ``data`` and, if it is valid, run every analysis on it.
    An ``InvalidModularData`` raised by a theorem check is not caught:
    it is a failed check, not a note."""
    validation = data.validate()
    base = dict(
        source=source,
        conductor=data.conductor,
        rank=data.rank,
        valid=validation.ok,
        validation=validation.summary(),
    )
    if not validation.ok:
        return AnalysisReport(**base)

    part = orbit_partition(data)
    subs = all_subcategories(data)
    closure = check_theorem_galois_closure(data)
    ob = check_orbit_lower_bound(data)
    diagnosis = ""
    if part.count == 2:
        diag = two_orbit_diagnosis(data)
        diagnosis = f"{diag.clause} ({diag.detail})"

    return AnalysisReport(
        **base,
        orbits=part.orbits,
        orbit_sizes=part.sizes,
        transitive=part.count == 1,
        pointed_rank=pointed_part(data).rank,
        adjoint_rank=adjoint_part(data).rank,
        subcategory_count=len(subs),
        subcategory_sizes=tuple(s.rank for s in subs),
        closure_theorem_ok=closure.ok,
        orbit_bound=(ob.bound, ob.orbit_count),
        pseudoinvertible=tuple(sorted(pseudoinvertibles(data))),
        orbitwise_pseudoinvertible=orbitwise_pseudoinvertible(data),
        square_twist_ok=square_twist_consistency(data).ok,
        dims_ratio_ok=dims_ratio_check(data).ok,
        diagnosis=diagnosis,
        notes=tuple(closure.failures[:4]),
    )
