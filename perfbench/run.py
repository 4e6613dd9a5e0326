"""Run one cemlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 26 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up runs once; then operations run back to back until ``--seconds``
have passed (and at least a few have run), with the other ``setup_reps - 1``
set-ups spread evenly between them. Timed sections are scaled to
reference host speed by probes timed around them (see ``hostclock.py``;
``sweep`` operations are not scaled). With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` operations alternate between untraced and traced, and it
carries the per-layer metrics from the traced ones. The line before it
holds the environment stamp, the output digests, every operation's raw
wall time and every probe time. Working files go under ``.perfbench_out/``
and are removed at the end; the span file of a traced run is kept there.

Exit codes: 0 with a result printed, 1 when the workload cannot run (set-up
failed, or no operation succeeded), 2 when ``src/cemlab`` is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_digests.json"
WORKLOAD_NAMES = ("train", "attack", "sweep", "oracle")

# Fewest operations a run makes, however long they take. A traced run
# alternates untraced and traced operations, so it needs twice as many.
MIN_OPS = 3


def thread_env(workload: str) -> dict[str, str]:
    """Thread settings, the same for every commit compared. Only the sweep
    runs two grid points at once; BLAS stays single-threaded everywhere."""
    return {
        "OPENBLAS_NUM_THREADS": "1",
        "CEM_LAB_THREADS": "2" if workload == "sweep" else "1",
    }


def environment_stamp(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        # glibc answers _SC_LEVEL3_CACHE_SIZE (194) from CPUID; Python's
        # os.sysconf does not know the name.
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        llc = libc.sysconf(194)
    except (OSError, AttributeError):
        llc = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "seed": seed,
        "git_commit": git_commit(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "CEM_LAB_THREADS": os.environ.get("CEM_LAB_THREADS"),
        "mc_entropy_bytes": "computed from array sizes, not measured traffic",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", import_s: float = 0.0,
                 out_root: Path = OUT):
    """Run one workload in this process. Returns (result, details, tracer):
    the result object the benchmark prints last, a details dict, and the
    tracer (None when untraced)."""
    from hostclock import HostClock
    from tracer import Tracer, layer_metrics
    from workloads import SIZES, WORKLOADS, OpResult

    os.environ["CEM_LAB_THREADS"] = thread_env(name)["CEM_LAB_THREADS"]
    out_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=out_root))
    try:
        workload = WORKLOADS[name](seed, SIZES[size], work)
        setup_reps = SIZES[size]["setup_reps"]
        # Set-up and import are training and module loading, small-array
        # and Python work, whatever the workload's operations are.
        clock = HostClock(sorted({"loop", workload.probe or "loop"}))
        # The import ran just before the first probe.
        scaled_import_s = clock.scale(import_s, "loop")
        setup_times, setup_scaled = [], []

        def set_up() -> None:
            t0 = time.perf_counter()
            workload.setup(len(setup_times))
            setup_times.append(time.perf_counter() - t0)
            setup_scaled.append(setup_times[-1] * clock.factor("loop"))

        set_up()
        tracer = Tracer() if trace else None
        min_ops = 2 * MIN_OPS if trace else MIN_OPS
        # (result, traced, host-speed factor) per operation.
        ops: list[tuple[OpResult, bool, float]] = []
        first_digests = None
        # Host speed drifts over seconds, so the later set-ups are spread
        # evenly over the timed section instead of run back to back; the
        # time they take does not count against it.
        start = time.perf_counter()

        def elapsed() -> float:
            return time.perf_counter() - start - sum(setup_times[1:])

        while len(ops) < min_ops or elapsed() < seconds:
            due = len(setup_times) * seconds / setup_reps
            if len(setup_times) < setup_reps and elapsed() >= due:
                set_up()
            rep = len(ops)
            traced = trace and rep % 2 == 1
            rep_dir = work / f"op_{rep}"
            try:
                if traced:
                    tracer.op = rep
                    with tracer.active():
                        res = workload.op(rep_dir)
                else:
                    res = workload.op(rep_dir)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                traceback.print_exc(file=sys.stderr)
                res = OpResult(wall_s=math.nan, units=0, unit_s=math.nan,
                               problems=[f"{type(exc).__name__}: {exc}"])
            # Probe after every operation: the next set-up needs a probe
            # before it even where operations are not scaled.
            factor = clock.factor(workload.probe or "loop")
            if workload.probe is None:
                factor = 1.0
            if res.digests:
                if first_digests is None:
                    first_digests = res.digests
                elif res.digests != first_digests:
                    res.problems.append("outputs differ from the first repetition")
            shutil.rmtree(rep_dir, ignore_errors=True)
            ops.append((res, traced, factor))
        while len(setup_times) < setup_reps:
            set_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for res, _, _ in ops if res.problems)
    good = [(res, traced, f) for res, traced, f in ops if not res.problems]
    plain = [(res, f) for res, traced, f in good if not traced]
    if not plain:
        raise RuntimeError(f"no {name} operation succeeded")

    wall_s = statistics.median(res.wall_s * f for res, f in plain)
    throughput = statistics.median(res.units / (res.unit_s * f) for res, f in plain)
    if trace:
        traced_ops = {rep for rep, (res, traced, _) in enumerate(ops)
                      if traced and not res.problems}
        if not traced_ops:
            raise RuntimeError(f"no traced {name} operation succeeded")
        traced_wall = statistics.median(
            res.wall_s * f for res, traced, f in good if traced
        )
        metrics = layer_metrics(tracer, traced_ops, traced_wall / wall_s - 1.0)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": _metric(scaled_import_s + statistics.median(setup_scaled), "s"),
            "wall_s": _metric(wall_s, "s"),
            "throughput_per_s": _metric(throughput, "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "ok_op_share": _metric((len(ops) - failed) / len(ops), "share"),
        }

    details = {
        "workload": name,
        "size": size,
        "trace": int(trace),
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "op_wall_s": [res.wall_s for res, _, _ in ops],
        "op_traced": [traced for _, traced, _ in ops],
        "unscaled_wall_s": statistics.median(res.wall_s for res, _ in plain),
        "probe_s": clock.probes,
        workload.throughput_metric: throughput * workload.throughput_scale,
        "digests": first_digests,
        "matches_default_seed_digest": _matches_reference(name, seed, size, first_digests),
        "problems": [p for res, _, _ in ops for p in res.problems][:20],
    }
    if tracer is not None:
        details["nesting_violations"] = tracer.nesting_violations()
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, details, tracer


def _matches_reference(name: str, seed: int, size: str, digests) -> bool | None:
    """Whether the outputs equal the recorded ones for the default seed;
    None when this run is not at the default seed and full size."""
    from cemlab.cli import DEFAULT_CONFIG

    if size != "full" or seed != DEFAULT_CONFIG["seed"] or not REFERENCE.exists():
        return None
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8")).get(name)
    return None if recorded is None else recorded == digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "cemlab" / "__init__.py").is_file():
        print(f"error: cemlab sources not found under {SRC}", file=sys.stderr)
        return 2
    # Thread settings take effect only if set before numpy is first loaded.
    os.environ.update(thread_env(args.workload))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cemlab.cli  # noqa: F401 - timed as part of set-up
    import_s = time.perf_counter() - t0
    if Path(cemlab.cli.__file__).resolve().parents[1] != SRC.resolve():
        print(f"error: imported cemlab from {cemlab.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    try:
        result, details, tracer = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            import_s=import_s,
        )
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc(file=sys.stderr)
        return 1
    details["stamp"] = environment_stamp(args.seed)
    if tracer is not None:
        spans = OUT / f"spans-{args.workload}-s{args.seed}.csv"
        tracer.write_spans(spans)
        details["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
