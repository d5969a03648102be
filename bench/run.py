"""Benchmark of modgal: CLI verbs and library entry points on four workloads.

Run from the root of the repository:

    python3 bench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

``--workload`` is one of catalog, ladder, pointed_sweep, tables, or
``all``, which runs every workload in a process of its own and combines
their results.  A run repeats whole passes over the workload's ops
until the next pass would end after ``--seconds`` (at least one pass).
With ``--trace 0`` it reports the end-to-end metrics, with times scaled
to a reference machine speed by a probe run between ops; with
``--trace 1`` it runs a warm-up pass, an untraced pass and the same
pass again with every ``modgal`` layer wrapped from outside, and
reports the per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  See
README.md in this directory.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7  # this process plus six fresh ones
SETUP_TIMEOUT_S = 120
PRECISION_ENV = "MODGAL_PRECISION"
# Times are reported at a reference machine speed: each op time is
# scaled by PROBE_REF_S / (the mean of the probes just before and just
# after it).  On a shared machine the same pass takes 1.7x longer when
# a neighbour loads the core, and the probe slows by the same factor;
# see README.md.
PROBE_REF_S = 0.05
PROBE_EVERY_S = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _import_modgal():
    """Import modgal from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "modgal" / "__init__.py").is_file():
        raise SystemExit(f"error: no modgal sources under {src}")
    sys.path.insert(0, str(src))
    import modgal

    if Path(modgal.__file__).resolve().parent != (src / "modgal").resolve():
        raise SystemExit(f"error: imported modgal from {modgal.__file__}, not {src}")
    return modgal


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (Fraction
    arithmetic and dict updates, like modgal's inner loops), which
    uses nothing from modgal, so no change to modgal moves it."""
    start = time.perf_counter()
    acc = [Fraction(0)] * 8
    for i in range(1, 1500):
        f = Fraction(i, i + 7)
        for j in range(8):
            acc[j] = f * j + acc[j]
    counts: dict = {}
    for i in range(30000):
        key = (i & 1023, i & 7)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def _modgal_modules() -> dict:
    return {
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("modgal.") and module is not None
    }


def _caches(modules: dict) -> dict:
    """Every lru_cache in modgal, by qualified name."""
    found = {}
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found[f"{value.__module__.split('.')[-1]}.{value.__name__}"] = value
    return found


def _environment(seed: int) -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        PRECISION_ENV: os.environ.get(PRECISION_ENV, "unset"),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- running ops -------------------------------------------------------------


class Runner:
    """Runs ops one at a time, each from empty modgal caches, as a fresh
    CLI process would, and checks each against the regression snapshot."""

    def __init__(self, caches: dict, snapshot: dict, workload: str):
        self.caches = caches
        self.snapshot = snapshot.get(workload, {})
        self.cache_hits = 0
        self.attempted = 0
        self.errors: list[str] = []
        self.observations: dict = {}
        self.tracer = None  # set while a traced pass runs, to tag spans by op

    def clear_caches(self) -> None:
        for name, cache in self.caches.items():
            if name == "galois_action.orbit_partition":
                self.cache_hits += cache.cache_info().hits
            cache.cache_clear()

    def run_pass(self, ops) -> tuple[list[float], dict, list[float]]:
        """Op durations of one pass, their scaled sums per verb, and each
        op's scale to the reference speed, from the probes around it."""
        durations = []
        probes: list[tuple[int, float]] = []  # (index of the next op, seconds)
        last_probe = float("-inf")
        for op in ops:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append((len(durations), probe()))
                last_probe = time.perf_counter()
            self.clear_caches()
            if self.tracer is not None:
                self.tracer.op_id = self.attempted
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising op is a failed op
                result, error = None, f"raised {exc!r}"
            else:
                error = None
            elapsed = time.perf_counter() - start
            if error is None:
                try:
                    error, observed = op.check(result)
                except Exception as exc:
                    error, observed = f"check raised {exc!r}", None
                if error is None and observed is not None:
                    self.observations[op.key] = observed
                    want = self.snapshot.get(op.key)
                    if want is not None and observed != want:
                        error = f"{observed!r} differs from the regression snapshot {want!r}"
            self.attempted += 1
            if error is not None:
                self.errors.append(f"{op.key}: {error}")
            durations.append(elapsed)
        probes.append((len(durations), probe()))
        self.clear_caches()
        gc.collect()
        scales = _scales(probes, len(durations))
        per_verb: dict[str, float] = {}
        for op, elapsed, scale in zip(ops, durations, scales):
            per_verb[op.verb] = per_verb.get(op.verb, 0.0) + elapsed * scale
        return durations, per_verb, scales


def _scales(probes: list[tuple[int, float]], n: int) -> list[float]:
    """PROBE_REF_S over the mean of the probes before and after each op."""
    scales = []
    for k in range(n):
        before = max((p for p in probes if p[0] <= k), key=lambda p: p[0])
        after = min((p for p in probes if p[0] > k), key=lambda p: p[0])
        scales.append(2 * PROBE_REF_S / (before[1] + after[1]))
    return scales


def _scaled_sum(durations: list[float], scales: list[float]) -> float:
    return sum(d * s for d, s in zip(durations, scales))


def _measure(runner: Runner, pass_ops, seconds: float) -> dict:
    walls, raw_walls, samples = [], [], []
    per_op: dict[str, list[float]] = {}
    start = time.perf_counter()
    i = 0
    while True:
        pass_start = time.perf_counter()
        ops = pass_ops(i)
        durations, _, scales = runner.run_pass(ops)
        for op, duration, scale in zip(ops, durations, scales):
            samples.append(duration * scale)
            per_op.setdefault(op.key, []).append(duration * scale)
        walls.append(_scaled_sum(durations, scales))
        raw_walls.append(sum(durations))
        i += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(samples) * 1e3,
        # the p90 over ops of each op's median latency: a pooled p90 of a
        # few passes is set by the single slowest samples
        "op_p90_ms": statistics.quantiles(
            [statistics.median(v) for v in per_op.values()], n=10, method="inclusive")[-1] * 1e3,
        "passes": len(walls),
        "ops": len(samples),
        "raw_walls": (min(raw_walls), statistics.median(raw_walls), max(raw_walls)),
    }


def _traced(runner: Runner, pass_ops, workload: str, modules: dict) -> tuple[dict, list[str]]:
    import layers
    from tracer import Tracer

    ops = pass_ops(0)
    # the warm-up pass pays the first-call costs (lazy imports, the
    # interpreter specialising its code), so neither measured pass does
    runner.run_pass(ops)
    untraced, per_verb, untraced_scales = runner.run_pass(ops)
    tracer = Tracer()
    runner.cache_hits = 0
    layers.install(tracer, modules)
    runner.tracer = tracer
    try:
        traced, _, traced_scales = runner.run_pass(ops)
    finally:
        runner.tracer = None
        tracer.restore()
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload}.npz")
    if tracer.missing:
        print("not traced (missing): " + ", ".join(tracer.missing))
    return layers.metrics(
        tracer, workload, runner.cache_hits, _scaled_sum(untraced, untraced_scales),
        _scaled_sum(traced, traced_scales), per_verb,
    )


def _setup_seconds(workload: str, seed: int, own: float) -> float:
    """Median set-up time over this process and fresh processes, each
    at the reference speed of a probe taken right after it."""
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _scaled_setup(elapsed: float) -> float:
    return elapsed * PROBE_REF_S / probe()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 modules: dict, caches: dict, snapshot: dict, setup_start: float,
                 record: dict | None = None) -> dict:
    import layers
    import workloads

    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        pass_ops = workloads.setup(workload, seed, work)
        own_setup = _scaled_setup(time.perf_counter() - setup_start)
        runner = Runner(caches, snapshot, workload)
        mismatches: list[str] = []
        if trace:
            metrics, mismatches = _traced(runner, pass_ops, workload, modules)
            units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
            for line in mismatches:
                print(f"count check FAILED: {line}")
            extra = ""
        else:
            measured = _measure(runner, pass_ops, seconds)
            metrics = {
                "setup_s": _setup_seconds(workload, seed, own_setup),
                "wall_s": measured["wall_s"],
                "op_p50_ms": measured["op_p50_ms"],
                "op_p90_ms": measured["op_p90_ms"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
            low, mid, high = measured["raw_walls"]
            extra = (f", {measured['passes']} passes of {low:.3f}/{mid:.3f}/{high:.3f} s"
                     f" (min/median/max, as measured), {measured['ops']} ops")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if record is not None:
        record[workload] = runner.observations
    failed = len(runner.errors)
    print(f"{workload} (seed {seed}{extra}): {failed} of {runner.attempted} ops failed, "
          f"failed_frac {failed / max(runner.attempted, 1)}")
    for error in runner.errors[:20]:
        print(f"  FAILED {error}")
    for name, value in metrics.items():
        print(f"  {name} {value} {units[name]}")
    return {
        "correct": failed == 0 and not mismatches,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "ladder", "pointed_sweep", "tables", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-snapshot", action="store_true",
                        help="run one pass of every workload and rewrite snapshot.json")
    args = parser.parse_args(argv)

    # every op runs with the sign oracle's default starting precision
    os.environ.pop(PRECISION_ENV, None)
    _import_modgal()
    import workloads

    if args.workload == "all" and not args.record_snapshot:
        return _run_all(args, workloads.WORKLOADS)

    if args.setup_only:
        work = WORK / f"setup-{os.getpid()}"
        try:
            workloads.setup(args.workload, args.seed, work)
            print(_scaled_setup(time.perf_counter() - _START))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    modules = _modgal_modules()
    caches = _caches(modules)
    snapshot_path = BENCH / "snapshot.json"
    if args.record_snapshot:
        record: dict = {}
        for name in workloads.WORKLOADS:
            run_workload(name, args.seed, 0.0, False, modules, caches, {}, time.perf_counter(), record)
        snapshot = {"note": json.loads(snapshot_path.read_text())["note"], **record}
        snapshot_path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        return 0

    snapshot = json.loads(snapshot_path.read_text())
    print("environment " + json.dumps(_environment(args.seed), sort_keys=True))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          modules, caches, snapshot, _START)
    print(json.dumps(result))
    return 0


def _run_all(args, names) -> int:
    """Run each workload in a fresh process, so that its set-up time and
    peak memory are its own, and combine the result lines."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
