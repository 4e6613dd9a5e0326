"""Outside-in span tracer for the cemlab benchmark.

The tracer wraps each public cemlab function at every name its callers look
it up under: ``cemlab.trainer.assign_nearest`` and ``cemlab.mixture.
assign_nearest`` are the same object bound in two module namespaces, and
both bindings are replaced while tracing is on. Nothing under ``src/`` is
edited; the original objects are put back when the context exits.

Each thread keeps its own stack of open spans. A span records its name, id,
parent id (on the same thread), the operation it belongs to, and its start
and end. Spans are stored in flat arrays in memory and written out once, at
the end of the run. A span's self time is its duration minus the durations
of its direct children; children nest inside their parent because they run
on the parent's thread between its start and end.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import threading
import time
from array import array
from collections import defaultdict

# (span name, defining module, attribute). The span name is the layer
# (module) plus the function, whichever namespace the call came through.
SPANNED = [
    ("cli.cmd_train", "cemlab.cli", "cmd_train"),
    ("cli.cmd_attack", "cemlab.cli", "cmd_attack"),
    ("cli.cmd_bounds", "cemlab.cli", "cmd_bounds"),
    ("cli.cmd_sweep", "cemlab.cli", "cmd_sweep"),
    ("cli.sweep_point", "cemlab.cli", "_sweep_point"),
    ("trainer.train", "cemlab.trainer", "train"),
    ("trainer.evaluate_utility", "cemlab.trainer", "evaluate_utility"),
    ("mixture.fit_init", "cemlab.mixture", "fit_init"),
    ("mixture.assign_nearest", "cemlab.mixture", "assign_nearest"),
    ("mixture.update_weights", "cemlab.mixture", "update_weights"),
    ("mixture.update_covariance", "cemlab.mixture", "update_covariance"),
    ("mixture.save_mixture", "cemlab.mixture", "save_mixture"),
    ("mixture.load_mixture", "cemlab.mixture", "load_mixture"),
    ("bounds.cem_loss", "cemlab.bounds", "cem_loss"),
    ("bounds.cem_loss_grad", "cemlab.bounds", "cem_loss_grad"),
    ("bounds.mixture_entropy_upper", "cemlab.bounds", "mixture_entropy_upper"),
    ("bounds.bounds_report", "cemlab.bounds", "bounds_report"),
    ("numerics.mc_entropy", "cemlab.numerics", "mc_entropy"),
    ("network.forward", "cemlab.network", "forward"),
    ("network.backward", "cemlab.network", "backward"),
    ("network.sgd_step", "cemlab.network", "sgd_step"),
    ("network.task_loss", "cemlab.network", "task_loss"),
    ("network.noise_inject", "cemlab.network", "noise_inject"),
    ("network.save_network", "cemlab.network", "save_network"),
    ("network.load_network", "cemlab.network", "load_network"),
    ("adversary.train_attacker", "cemlab.adversary", "train_attacker"),
    ("adversary.evaluate_attack", "cemlab.adversary", "evaluate_attack"),
    ("adversary.reconstruction_mse", "cemlab.adversary", "reconstruction_mse"),
    ("data.synth_blobs", "cemlab.data", "synth_blobs"),
]

# Static methods called about 25 times per training batch from inside other
# spans; a count is what is asked of them, so they get a counter, not a span.
COUNTED = [("numerics.Covariance.diagonal", "cemlab.numerics", "Covariance.diagonal")]

# Spans that also record thread CPU time, to split wall time into CPU and
# waiting for the interpreter lock.
CPU_TIMED = {"cli.sweep_point"}

PACKAGE = "cemlab"


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _train_batches(cfg, data) -> int:
    return cfg.epochs * math.ceil(len(data.train_idx) / cfg.batch_size)


def _mc_entropy_bytes(mix, noise, n_samples, seed) -> int:
    """Bytes of float64/int64 arrays mc_entropy builds, from their sizes:
    per sample, the choice index, the normal draws, the gathered means and
    variances and the draws themselves (4*d + 1 words), one deviation
    array per component (k*d words) and the log-term matrix (k words)."""
    k = len(mix.components)
    d = mix.dim
    return 8 * n_samples * (4 * d + 1 + k * d + k)


# Counters derived from a call's arguments: name -> (counter, function).
ARG_COUNTERS = {
    "trainer.train": ("trainer.batches", _train_batches),
    "numerics.mc_entropy": ("numerics.mc_entropy.bytes_computed", _mc_entropy_bytes),
}


class Tracer:
    """Records spans and counters while :meth:`active` is entered."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_thread = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_cpu = {}  # span id -> thread CPU seconds
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> name -> n
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_ids: dict[int, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.span_name)
            tid = self._thread_ids.setdefault(
                threading.get_ident(), len(self._thread_ids)
            )
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_thread.append(tid)
            self.span_start.append(time.perf_counter())
            self.span_end.append(math.nan)
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[self.op][name] += n

    def _span_wrapper(self, name: str, fn):
        name_id = self._name_id(name)
        arg_counter = ARG_COUNTERS.get(name)
        cpu = name in CPU_TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_counter is not None:
                self.count(arg_counter[0], arg_counter[1](*args, **kwargs))
            sid = self._open(name_id)
            c0 = time.thread_time() if cpu else 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                if cpu:
                    self.span_cpu[sid] = time.thread_time() - c0
                self._close(sid)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Swap every binding of the traced functions for a wrapper, and
        put the originals back on exit."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        saved = []
        try:
            for name, module, attr in SPANNED:
                owner, last = _resolve(module, attr)
                original = getattr(owner, last)
                wrapped = self._span_wrapper(name, original)
                # Every module namespace that binds the same object, e.g.
                # the from-imports in trainer and adversary.
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, key, value))
                            setattr(m, key, wrapped)
            for name, module, attr in COUNTED:
                owner, last = _resolve(module, attr)
                raw = vars(owner)[last]
                saved.append((owner, last, raw))
                wrapped = self._count_wrapper(name, raw.__func__)
                setattr(owner, last, staticmethod(wrapped))
            yield self
        finally:
            for owner, key, value in reversed(saved):
                setattr(owner, key, value)

    # -- aggregation -------------------------------------------------------

    def self_times(self, ops=None) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds) over ``ops``."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i in range(n):
            if ops is not None and self.span_op[i] not in ops:
                continue
            row = out.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def spans_named(self, name: str):
        """(span id, duration, thread CPU seconds or None) for each span."""
        if name not in self._name_ids:
            return []
        nid = self._name_ids[name]
        return [
            (i, self.span_end[i] - self.span_start[i], self.span_cpu.get(i))
            for i in range(len(self.span_name))
            if self.span_name[i] == nid
        ]

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent span."""
        bad = 0
        for i in range(len(self.span_name)):
            p = self.span_parent[i]
            if p < 0:
                continue
            if (self.span_start[i] < self.span_start[p]
                    or self.span_end[i] > self.span_end[p]):
                bad += 1
        return bad

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,thread,name,start_s,end_s\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.span_parent[i]},{self.span_op[i]},"
                    f"{self.span_thread[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}\n"
                )


# -- per-layer metrics ----------------------------------------------------

SELF_TIMED = [
    "mixture.fit_init", "mixture.assign_nearest", "mixture.update_weights",
    "mixture.update_covariance", "bounds.cem_loss", "bounds.cem_loss_grad",
    "network.forward", "network.backward", "network.sgd_step",
    "network.task_loss", "network.noise_inject", "adversary.train_attacker",
    "adversary.reconstruction_mse", "trainer.train", "numerics.mc_entropy",
    "bounds.mixture_entropy_upper", "bounds.bounds_report", "data.synth_blobs",
    "network.save_network", "network.load_network", "mixture.save_mixture",
    "mixture.load_mixture", "cli.cmd_train",
]
CALL_COUNTED = ["mixture.fit_init", "network.forward", "data.synth_blobs"]


def layer_metrics(tracer: Tracer, ops: set[int], overhead_share: float) -> dict:
    """Per-layer metrics over the traced operations ``ops``, each per
    operation unless its name says otherwise. A layer a workload does not
    reach reads 0."""
    n_ops = max(1, len(ops))
    times = tracer.self_times(ops)
    counts = defaultdict(int)
    for op in ops:
        for name, n in tracer.counts[op].items():
            counts[name] += n

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (times.get(name, (0, 0.0, 0.0))[2] / n_ops, "s")
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = (calls(name) / n_ops, "count")

    batches = counts["trainer.batches"]
    metrics["trainer.batches"] = (batches / n_ops, "count")
    metrics["trainer.batch_ms"] = (
        1000.0 * inclusive("trainer.train") / batches if batches else 0.0, "ms")
    metrics["trainer.refit_share"] = (
        inclusive("mixture.fit_init") / inclusive("trainer.train")
        if inclusive("trainer.train") else 0.0, "share")
    metrics["numerics.Covariance.diagonal.per_batch"] = (
        counts["numerics.Covariance.diagonal"] / batches if batches else 0.0, "count")
    metrics["numerics.mc_entropy.bytes_computed"] = (
        counts["numerics.mc_entropy.bytes_computed"] / n_ops, "B")

    points = [
        (dur, cpu) for sid, dur, cpu in tracer.spans_named("cli.sweep_point")
        if tracer.span_op[sid] in ops
    ]
    sweeps = [
        dur for sid, dur, _ in tracer.spans_named("cli.cmd_sweep")
        if tracer.span_op[sid] in ops
    ]
    wall = sum(d for d, _ in points) / len(points) if points else 0.0
    cpu = sum(c for _, c in points) / len(points) if points else 0.0
    metrics["cli.sweep.point_wall_s"] = (wall, "s")
    metrics["cli.sweep.point_cpu_s"] = (cpu, "s")
    metrics["cli.sweep.point_wait_s"] = (wall - cpu, "s")
    metrics["cli.sweep.overlap"] = (
        sum(d for d, _ in points) / sum(sweeps) if sweeps else 0.0, "ratio")
    metrics["trace.overhead_share"] = (overhead_share, "share")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
