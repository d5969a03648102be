"""Which ``modgal`` functions the traced run wraps, and the per-layer
metrics it derives from their spans and counters.

Each target is (metric, module, class or None, attribute, stats).
``stats`` lists the reported statistics of the span name: ``calls``,
``busy_s`` and, where the function calls other traced functions,
``self_s``.  A target that no longer exists is skipped and reports 0.
"""

from __future__ import annotations

import sys

CB = ("calls", "busy_s")
CBS = ("calls", "busy_s", "self_s")

TARGETS = (
    ("cyclotomic.mul", "cyclotomic", "CycNum", "__mul__", CB),
    ("cyclotomic.add", "cyclotomic", "CycNum", "__add__", CB),
    ("cyclotomic.inverse", "cyclotomic", "CycNum", "inverse", CBS),
    ("cyclotomic.galois_apply", "cyclotomic", "CycNum", "galois_apply", CB),
    ("cyclotomic.sign_of_real", "cyclotomic", None, "sign_of_real", CBS),
    ("modular_data.loads", "modular_data", None, "loads_modular_data", CBS),
    ("modular_data.validate", "modular_data", "ModularData", "validate", CBS),
    ("modular_data.fusion", "modular_data", "ModularData", "_verlinde", CBS),
    ("modular_data.charge_conjugation", "modular_data", "ModularData", "charge_conjugation", CBS),
    ("modular_data.fp_dims", "modular_data", "ModularData", "fp_dims", CBS),
    ("modular_data.deligne_product", "modular_data", None, "deligne_product", CBS),
    ("modular_data.dumps", "modular_data", None, "dump_modular_data", CBS),
    ("galois_action.orbit_partition", "galois_action", None, "orbit_partition", CBS),
    ("galois_action.galois_permutation", "galois_action", None, "galois_permutation", CBS),
    ("galois_action.verlinde_field_degree", "galois_action", None, "verlinde_field_degree", CBS),
    ("galois_action.dims_ratio_check", "galois_action", None, "dims_ratio_check", CBS),
    ("galois_action.square_twist_consistency", "galois_action", None, "square_twist_consistency", CBS),
    ("subcategories.all_subcategories", "subcategories", None, "all_subcategories", CBS),
    ("subcategories.generated_subcategory", "subcategories", None, "generated_subcategory", CBS),
    ("subcategories.centralizer", "subcategories", None, "centralizer", CBS),
    ("subcategories.check_theorem_galois_closure", "subcategories", None, "check_theorem_galois_closure", CBS),
    ("subcategories.two_orbit_diagnosis", "subcategories", None, "two_orbit_diagnosis", CBS),
    ("analysis.run_analysis", "analysis", None, "run_analysis", CBS),
    ("pointed.enumerate_quadratic_forms", "pointed", None, "enumerate_quadratic_forms", CBS),
    ("pointed.candidates", "pointed", "QuadraticFormSpec", "__post_init__", ()),
    ("pointed.is_nondegenerate", "pointed", "QuadraticFormSpec", "is_nondegenerate", CBS),
    ("pointed.gram_steps", "pointed", None, "gram_steps", CB),
    ("pointed.pointed_orbit_partition", "pointed", None, "pointed_orbit_partition", CBS),
    ("pointed.generator_partition", "pointed", None, "generator_partition", CB),
    ("pointed.cyclic_subgroup_count", "pointed", None, "cyclic_subgroup_count", CB),
    ("tspectra.rows_for_levels", "tspectra", None, "rows_for_levels", CBS),
    ("tspectra.RootSet.of", "tspectra", "RootSet", "of", CB),
    ("tspectra.verify_rows", "tspectra", None, "verify_rows", CBS),
    ("tspectra.square_galois_orbit_count", "tspectra", None, "square_galois_orbit_count", CB),
    ("cli.main", "cli", None, "main", CBS),
)

VERBS = ("validate", "report", "product", "pointed", "tables")

# (name, unit, better) of the metrics that are not a span statistic
DERIVED = (
    ("galois_action.orbit_partition.cache_hits", "count", "higher"),
    ("subcategories.join_yield", "ratio", "higher"),
    ("pointed.candidates", "count", "lower"),
    ("pointed.forms_accepted", "count", "higher"),
    ("pointed.accept_ratio", "ratio", "higher"),
    ("tspectra.rows_checked", "count", "higher"),
    ("tspectra.rows_failed", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.count_mismatches", "count", "lower"),
) + tuple((f"verb.{v}_s", "s", "lower") for v in VERBS)

# Exact counts of one pass of pointed_sweep, measured when the
# benchmark was added.  A mismatch makes the traced run incorrect, so a
# change that moves these counts on purpose records the new ones here.
SWEEP_COUNTS = {
    "pointed.candidates": 162454,
    "pointed.is_nondegenerate.calls": 162453,
    "pointed.gram_steps.calls": 497439,
    "pointed.forms_accepted": 9961,
}
# Workloads on which the cyclotomic kernel should do no work at all.
NO_CYCLOTOMIC = ("pointed_sweep", "tables")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for metric, _, _, _, stats in TARGETS:
        for stat in stats:
            unit = "count" if stat == "calls" else "s"
            out.append((f"{metric}.{stat}", unit, "lower"))
    return out + list(DERIVED)


def install(tracer, modules: dict) -> None:
    """Wrap every target.  ``modules`` maps short module names (``cli``,
    ``pointed``) to the imported ``modgal`` modules."""
    everything = list(modules.values()) + [sys.modules["modgal"]]
    seen_subcategories: dict[int, object] = {}

    def found(tr, subs):
        # all_subcategories is cached: count each distinct result once
        if id(subs) not in seen_subcategories:
            seen_subcategories[id(subs)] = subs
            tr.counters["subcategories.found"] += len(subs)

    def rows(tr, verification):
        tr.counters["tspectra.rows_checked"] += verification.checked
        tr.counters["tspectra.rows_failed"] += len(verification.failures)

    hooks = {"subcategories.all_subcategories": found, "tspectra.verify_rows": rows}
    for metric, module_name, class_name, attr, _ in TARGETS:
        module = modules.get(module_name)
        hook = hooks.get(metric)
        if class_name is None:
            tracer.patch_function(everything, module, attr, metric, hook)
        else:
            tracer.patch_method(getattr(module, class_name, None), attr, metric, hook)


def metrics(tracer, workload: str, cache_hits: float, untraced_wall: float,
            traced_wall: float, verb_seconds: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values of one traced pass, and the list of
    mismatches of the exact-count self-check."""
    summary = tracer.summary()
    values = {}
    for metric, _, _, _, stats in TARGETS:
        row = summary.get(metric, {})
        for stat in stats:
            values[f"{metric}.{stat}"] = row.get(stat, 0)
    joins = tracer.calls.get("subcategories.generated_subcategory", 0)
    candidates = tracer.calls.get("pointed.candidates", 0)
    accepted = tracer.counters.get("pointed.enumerate_quadratic_forms.yields", 0)
    values.update({
        "galois_action.orbit_partition.cache_hits": cache_hits,
        "subcategories.join_yield": tracer.counters.get("subcategories.found", 0) / joins if joins else 0.0,
        "pointed.candidates": candidates,
        "pointed.forms_accepted": accepted,
        "pointed.accept_ratio": accepted / candidates if candidates else 0.0,
        "tspectra.rows_checked": tracer.counters.get("tspectra.rows_checked", 0),
        "tspectra.rows_failed": tracer.counters.get("tspectra.rows_failed", 0),
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    for verb in VERBS:
        values[f"verb.{verb}_s"] = verb_seconds.get(verb, 0.0)
    mismatches = []
    if workload == "pointed_sweep":
        for name, want in SWEEP_COUNTS.items():
            if values[name] != want:
                mismatches.append(f"{name} = {values[name]}, recorded {want}")
    if workload in NO_CYCLOTOMIC:
        for name in values:
            if name.startswith("cyclotomic.") and name.endswith(".calls") and values[name]:
                mismatches.append(f"{name} = {values[name]}, expected 0")
    values["trace.count_mismatches"] = len(mismatches)
    return {k: int(v) if isinstance(v, int) else float(v) for k, v in values.items()}, mismatches
