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
from .modular_data import InvalidModularData, ModularData
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
        checks = [
            self.valid,
            self.closure_theorem_ok in (True, None),
            self.square_twist_ok in (True, None),
            self.dims_ratio_ok in (True, None),
            self.orbit_bound is None or self.orbit_bound[1] >= self.orbit_bound[0],
        ]
        return all(checks)

    def to_text(self) -> str:
        lines = [f"input: {self.source}"]
        lines.append(f"conductor {self.conductor}, rank {self.rank}")
        lines.append(f"validation: {self.validation}")
        if not self.valid:
            return "\n".join(lines) + "\n"
        sizes = "+".join(str(s) for s in self.orbit_sizes)
        lines.append(f"orbits ({sizes}): " + " ".join(str(list(o)) for o in self.orbits))
        lines.append(f"transitive: {_yn(self.transitive)}")
        if self.pointed_rank is not None:
            lines.append(
                f"pointed rank {self.pointed_rank}, adjoint rank {self.adjoint_rank}"
            )
        if self.subcategory_count is not None:
            lines.append(
                f"fusion subcategories: {self.subcategory_count} "
                f"(sizes {', '.join(map(str, self.subcategory_sizes))})"
            )
        if self.closure_theorem_ok is not None:
            lines.append(
                "galois closure <=> integral centralizer: "
                + _pf(self.closure_theorem_ok)
            )
        if self.orbit_bound is not None:
            b, a = self.orbit_bound
            lines.append(f"orbit count {a} >= pointed lower bound {b}: {_pf(a >= b)}")
        lines.append(
            "pseudoinvertible objects: "
            + (str(list(self.pseudoinvertible)) if self.pseudoinvertible else "none")
        )
        if self.orbitwise_pseudoinvertible is not None:
            lines.append(
                "every orbit meets a pseudoinvertible: "
                + ("yes (pointed (x) transitive factorization shape)"
                   if self.orbitwise_pseudoinvertible else "no")
            )
        if self.square_twist_ok is not None:
            lines.append(f"square twist consistency: {_pf(self.square_twist_ok)}")
        if self.dims_ratio_ok is not None:
            lines.append(f"dimension ratio identity: {_pf(self.dims_ratio_ok)}")
        if self.diagnosis:
            lines.append(f"two-orbit diagnosis: {self.diagnosis}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {**asdict(self), "ok": self.ok}
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _yn(v: bool) -> str:
    return "yes" if v else "no"


def _pf(v: bool) -> str:
    return "pass" if v else "FAIL"


def run_analysis(data: ModularData, source: str, max_rank: int = 64) -> AnalysisReport:
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
    notes: list[str] = []
    st = square_twist_consistency(data)
    dr = dims_ratio_check(data)

    pointed_rank = adjoint_rank = None
    sub_count = None
    sub_sizes: tuple[int, ...] = ()
    closure_ok = None
    bound = None
    diagnosis = ""
    if data.rank <= max_rank:
        try:
            pointed_rank = pointed_part(data).rank
            adjoint_rank = adjoint_part(data).rank
            subs = all_subcategories(data)
            sub_count = len(subs)
            sub_sizes = tuple(s.rank for s in subs)
            closure = check_theorem_galois_closure(data)
            closure_ok = closure.ok
            notes.extend(closure.failures[:4])
            ob = check_orbit_lower_bound(data)
            bound = (ob.bound, ob.orbit_count)
            if part.count == 2:
                diag = two_orbit_diagnosis(data)
                diagnosis = f"{diag.clause} ({diag.detail})"
        except InvalidModularData as exc:
            notes.append(str(exc))
    else:
        notes.append(f"lattice and theorem checks skipped (rank > {max_rank})")

    return AnalysisReport(
        **base,
        orbits=part.orbits,
        orbit_sizes=part.sizes,
        transitive=part.count == 1,
        pointed_rank=pointed_rank,
        adjoint_rank=adjoint_rank,
        subcategory_count=sub_count,
        subcategory_sizes=sub_sizes,
        closure_theorem_ok=closure_ok,
        orbit_bound=bound,
        pseudoinvertible=tuple(sorted(pseudoinvertibles(data))),
        orbitwise_pseudoinvertible=orbitwise_pseudoinvertible(data),
        square_twist_ok=st.ok,
        dims_ratio_ok=dr.ok,
        diagnosis=diagnosis,
        notes=tuple(notes),
    )
