"""Tests of the benchmark itself: span arithmetic, restoring the
wrapped bindings, the sizes of the op lists, and agreement between
BENCHMARK.json and the metrics the benchmark prints."""

import inspect
import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class _Clock:
    """Returns 0, 1, 2, ... so every duration is a count of clock reads."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _synthetic_module():
    mod = types.ModuleType("synthetic")

    def leaf():
        return 1

    def middle():
        return mod.leaf() + mod.leaf()

    def outer():
        return mod.middle() + mod.leaf()

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    return mod


def test_self_time_of_nested_calls():
    mod = _synthetic_module()
    tracer = Tracer(clock=_Clock())
    for name in ("leaf", "middle", "outer"):
        tracer.patch_function([mod], mod, name, name)
    assert mod.outer() == 3
    tracer.restore()
    # clock reads: outer 0, middle 1, leaf 2-3, leaf 4-5, middle ends 6,
    # leaf 7-8, outer ends 9
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "busy_s": 9.0, "self_s": 9.0 - 5.0 - 1.0}
    assert summary["middle"] == {"calls": 1, "busy_s": 5.0, "self_s": 5.0 - 2.0}
    assert summary["leaf"] == {"calls": 3, "busy_s": 3.0, "self_s": 3.0}


def test_nested_spans_of_one_name_count_busy_time_once():
    mod = types.ModuleType("recursive")

    def countdown(n):
        return 0 if n == 0 else 1 + mod.countdown(n - 1)

    mod.countdown = countdown
    tracer = Tracer(clock=_Clock())
    tracer.patch_function([mod], mod, "countdown", "countdown")
    assert mod.countdown(2) == 2
    tracer.restore()
    # spans 0-5, 1-4, 2-3
    assert tracer.summary()["countdown"] == {"calls": 3, "busy_s": 5.0, "self_s": 5.0}


def test_generator_resumptions_are_spans_of_one_call():
    mod = types.ModuleType("gen")

    def items():
        yield from range(3)

    mod.items = items
    tracer = Tracer(clock=_Clock())
    tracer.patch_function([mod], mod, "items", "items")
    assert list(mod.items()) == [0, 1, 2]
    tracer.restore()
    assert tracer.calls["items"] == 1
    assert tracer.counters["items.yields"] == 3
    assert len(tracer.start) == 4  # three items and the final StopIteration


def test_count_check_flags_sweep_counts_and_cyclotomic_calls():
    tracer = Tracer()
    assert tracer.wrap(lambda: 1, "cyclotomic.mul")() == 1
    _, mismatches = layers.metrics(tracer, "tables", 0, 1.0, 1.0, {})
    assert mismatches == ["cyclotomic.mul.calls = 1, expected 0"]
    values, mismatches = layers.metrics(Tracer(), "pointed_sweep", 0, 1.0, 1.0, {})
    assert len(mismatches) == len(layers.SWEEP_COUNTS)
    assert values["trace.count_mismatches"] == len(mismatches)
    assert layers.metrics(Tracer(), "ladder", 0, 1.0, 1.0, {})[1] == []


def _bindings():
    """Every attribute of every modgal module and of every class they define."""
    import modgal

    owners = [modgal] + list(run._modgal_modules().values())
    owners += [
        value for module in owners for value in vars(module).values()
        if inspect.isclass(value) and value.__module__.startswith("modgal")
    ]
    return {(id(owner), name): value for owner in owners for name, value in list(vars(owner).items())}


def test_restore_puts_back_every_original_binding():
    import modgal.cli  # noqa: F401  (imports every layer)
    from modgal.cyclotomic import CycNum

    before = _bindings()
    tracer = Tracer()
    try:
        layers.install(tracer, run._modgal_modules())
        assert tracer.missing == []
        assert CycNum.__radd__ is CycNum.__add__ is not before[(id(CycNum), "__add__")]
        assert modgal.cli.orbit_partition is modgal.galois_action.orbit_partition
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_op_lists_have_the_named_sizes(tmp_path):
    assert len(workloads.FIXTURES) == 17
    assert len(workloads.PRODUCTS) == 5
    assert len(workloads.RANK_1800) == 12 and len(workloads.POINTED_FULL) == 5
    assert len(workloads.CATALOG_LEVELS) == 5 and len(workloads.TABLE_LEVELS) == 5

    catalog = workloads.setup("catalog", 1, tmp_path / "catalog")(0)
    verbs = [op.verb for op in catalog]
    assert len(catalog) == 61
    assert {v: verbs.count(v) for v in set(verbs)} == {
        "validate": 17, "report": 17, "product": 5, "pointed": 17, "tables": 5,
    }
    assert len(workloads.setup("ladder", 1, tmp_path / "ladder")(0)) == 3
    assert len(workloads.setup("pointed_sweep", 1, tmp_path / "sweep")(0)) == 117
    assert len(workloads.setup("tables", 1, tmp_path / "tables")(0)) == 5


def test_seed_shuffles_the_order_and_keeps_the_ops(tmp_path):
    pass_ops = workloads.setup("tables", 7, tmp_path)
    first, second = [op.key for op in pass_ops(0)], [op.key for op in pass_ops(1)]
    assert sorted(first) == sorted(second)
    assert first == [op.key for op in workloads.setup("tables", 7, tmp_path)(0)]


def test_snapshot_agrees_with_the_hand_references():
    snapshot = json.loads((BENCH / "snapshot.json").read_text())
    sweep = snapshot["pointed_sweep"]
    assert len(sweep) == workloads.SWEEP_GROUPS == len(workloads.abelian_groups(64))
    assert sum(sweep.values()) == workloads.SWEEP_FORMS
    for name, orbits in workloads.CRITERION_2.items():
        assert snapshot["catalog"][f"report {name}"]["orbits"] == orbits


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.per_layer_metrics()
    assert spec["paths"] == ["bench"]
