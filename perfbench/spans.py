"""Timing spans around the public functions of the marketstates modules.

A :class:`Tracer` replaces functions in the module namespaces where their
callers look them up (``marketstates.cli.sigma_intra``,
``marketstates.clustering.kmeans``, ...) with wrappers that record one span
per call: layer name, thread, start and end. Spans stay in memory; the
job entry script asks for :meth:`Tracer.summary` when the job ends.

A target whose name no longer exists (after a refactor deletes it) is
skipped, and the metrics derived from it are absent from the summary.
Nothing is installed unless :meth:`Tracer.install` is called, so untraced
jobs run the program untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# Layer span name -> the (module, attribute) lookups its callers make.
# One layer may be looked up in several namespaces (``power_map`` is called
# through ``corrmat`` by the per-epoch pipeline and through ``clustering``
# by the grid); a span nested in a span of the same name on the same thread
# is not recorded, so a layer is never counted twice.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "ingest.load_price_table": (("marketstates.cli", "load_price_table"),),
    "ingest.filter_stocks": (("marketstates.cli", "filter_stocks"),),
    "ingest.log_returns": (("marketstates.cli", "log_returns"),),
    "ingest.load_sector_map": (("marketstates.cli", "load_sector_map"),),
    "corrmat.pipeline_matrices": (("marketstates.cli", "pipeline_matrices"),),
    "corrmat.rolling_correlations": (
        ("marketstates.clustering", "rolling_correlations"),
        ("marketstates.corrmat", "rolling_correlations"),
        ("marketstates.corrmat", "iter_rolling_correlations"),
    ),
    "corrmat.power_map": (
        ("marketstates.clustering", "power_map"),
        ("marketstates.corrmat", "power_map"),
    ),
    "corrmat.coarse_grain": (
        ("marketstates.clustering", "coarse_grain"),
        ("marketstates.corrmat", "coarse_grain"),
    ),
    "clustering.optimize_states": (("marketstates.cli", "optimize_states"),),
    "clustering.sigma_intra": (
        ("marketstates.cli", "sigma_intra"),
        ("marketstates.clustering", "sigma_intra"),
    ),
    "clustering.kmeans": (("marketstates.clustering", "kmeans"),),
    "clustering.order_states": (("marketstates.cli", "order_states"),),
    "markov.transition_matrix": (("marketstates.cli", "transition_matrix"),),
    "markov.equilibrium_distribution": (
        ("marketstates.cli", "equilibrium_distribution"),
    ),
    "markov.markovianity_check": (("marketstates.cli", "markovianity_check"),),
    "mds.distance_matrix": (("marketstates.cli", "distance_matrix"),),
    "mds.classical_mds": (("marketstates.cli", "classical_mds"),),
    "mds.render": (
        ("marketstates.cli", "embedding_table"),
        ("marketstates.cli", "embedding_svg"),
    ),
}

# Layers whose call count is reported as ``<layer>.calls``.
COUNTED = ("corrmat.power_map", "corrmat.coarse_grain", "clustering.kmeans")

# Layers at whose end the process high-water mark is read.
RSS_AT_END = (
    "corrmat.pipeline_matrices",
    "clustering.sigma_intra",
    "clustering.optimize_states",
    "mds.distance_matrix",
    "mds.classical_mds",
)

# Counter name -> the layers whose results feed it.
COUNTERS = {
    "clustering.kmeans.iterations": ("clustering.kmeans",),
    "clustering.kmeans.l1_ops": ("clustering.kmeans",),
    "markov.equilibrium.steps": ("markov.equilibrium_distribution",),
    "mds.distance_matrix.l1_ops": ("mds.distance_matrix",),
    # computed as matrices x P x 8 bytes of the largest packed list made
    "corrmat.packed_mb": ("corrmat.pipeline_matrices", "corrmat.rolling_correlations"),
}

# Layers whose process CPU time is compared with their wall time.
CPU_LAYERS = ("clustering.optimize_states", "clustering.sigma_intra")


class Span(NamedTuple):
    name: str
    thread: int
    start: float
    end: float
    cpu: float  # process CPU seconds over the span; 0 unless a CPU layer


def covered_seconds(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to [lo, hi].

    Spans on different threads overlap; the union, not the sum, is the
    time they cover.
    """
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def kmeans_l1_ops(iterations: int, n: int, k: int, p: int) -> int:
    """Point-centroid L1 terms of one k-means run: one n x k distance pass
    per iteration plus the final pass for d_intra, each over P entries."""
    return (iterations + 1) * n * k * p


def distance_matrix_l1_ops(n: int, p: int) -> int:
    """L1 terms of the pairwise distance matrix over n packed rows of P."""
    return n * (n - 1) // 2 * p


def _rows_and_width(matrices):
    """(matrix count, packed length) of a matrix sequence or a 2-D stack."""
    shape = getattr(getattr(matrices, "data", None), "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]), int(shape[1])
    shape = getattr(matrices, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]), int(shape[1])
    return len(matrices), int(matrices[0].data.shape[0])


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and counters for one traced job."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxrss: dict[str, float] = {}
        self.installed: set[str] = set()
        self.unreadable: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._active = threading.local()

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target name that exists; skip the ones that do not."""
        for layer, lookups in self.targets.items():
            for module_name, attr in lookups:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
                self.installed.add(layer)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # time each step, so the consumer's work between steps
                # is not charged to this layer
                it = fn(*args, **kwargs)
                while True:
                    token = self._enter(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._exit(layer, token, None, args)
                        return
                    except BaseException:
                        self._exit(layer, token, None, args)
                        raise
                    self._exit(layer, token, None, args)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self._enter(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(layer, token, result, args)

        return wrapper

    # -- recording -------------------------------------------------------

    def _enter(self, layer: str):
        active = self._active.__dict__.setdefault("layers", set())
        if layer in active:
            return None
        active.add(layer)
        cpu = time.process_time() if layer in CPU_LAYERS else 0.0
        return time.perf_counter(), cpu

    def _exit(self, layer: str, token, result, args) -> None:
        if token is None:
            return
        end = time.perf_counter()
        start, cpu0 = token
        cpu = time.process_time() - cpu0 if layer in CPU_LAYERS else 0.0
        self._active.layers.discard(layer)
        rss = _maxrss_mb() if layer in RSS_AT_END else None
        with self._lock:
            self.spans.append(Span(layer, threading.get_ident(), start, end, cpu))
            if rss is not None:
                self.maxrss[layer] = max(self.maxrss.get(layer, 0.0), rss)
            if result is not None:
                self._count(layer, result, args)

    def _count(self, layer: str, result, args) -> None:
        """Counters read from a layer's result. A result whose shape a
        refactor changed leaves its counters out of the summary."""
        c = self.counters
        try:
            if layer == "clustering.kmeans":
                n, p = result.assignments.shape[0], result.centroids.shape[1]
                c["clustering.kmeans.iterations"] += result.iterations
                c["clustering.kmeans.converged"] += bool(result.converged)
                c["clustering.kmeans.l1_ops"] += kmeans_l1_ops(
                    result.iterations, n, result.k, p
                )
            elif layer == "markov.equilibrium_distribution":
                c["markov.equilibrium.steps"] += result.steps
            elif layer == "mds.distance_matrix":
                _, p = _rows_and_width(args[0])
                c["mds.distance_matrix.l1_ops"] += distance_matrix_l1_ops(result.n, p)
            elif layer in COUNTERS["corrmat.packed_mb"]:
                rows, p = _rows_and_width(result)
                c["corrmat.packed_mb"] = max(c["corrmat.packed_mb"], rows * p * 8 / 1e6)
        except (AttributeError, TypeError, IndexError):
            self.unreadable.add(layer)

    # -- reporting -------------------------------------------------------

    def summary(self, main_start: float, main_end: float) -> dict[str, float]:
        """Per-layer metrics of one job whose ``cli.main`` ran from
        ``main_start`` to ``main_end``. A layer that is installed but was
        not called reports zero time and zero counts."""
        spans = list(self.spans)
        out: dict[str, float] = {}
        calls: dict[str, int] = defaultdict(int)
        for layer in self.targets:
            if layer in self.installed:
                out[layer + ".s"] = 0.0
        for s in spans:
            out[s.name + ".s"] += s.end - s.start
            calls[s.name] += 1
        for layer in COUNTED:
            if layer in self.installed:
                out[layer + ".calls"] = calls[layer]
        for layer in RSS_AT_END:
            if layer in self.installed:
                out[layer + ".maxrss_mb"] = self.maxrss.get(layer, 0.0)
        for name, layers in COUNTERS.items():
            if self.installed.intersection(layers) and not self.unreadable.intersection(layers):
                out[name] = self.counters.get(name, 0.0)
        runs = calls["clustering.kmeans"]
        if runs and "clustering.kmeans.iterations" in out:
            out["clustering.kmeans.converged_frac"] = (
                self.counters["clustering.kmeans.converged"] / runs
            )

        outer = _outermost([s for s in spans if s.name in CPU_LAYERS])
        wall = sum(s.end - s.start for s in outer)
        if wall > 0:
            out["clustering.cpu_util"] = sum(s.cpu for s in outer) / wall

        out["cli.self_s"] = (main_end - main_start) - covered_seconds(
            [(s.start, s.end) for s in spans], main_start, main_end
        )
        return out


def _outermost(spans: list[Span]) -> list[Span]:
    """Spans not enclosed by an earlier-starting span of the list."""
    kept: list[Span] = []
    for s in sorted(spans, key=lambda s: (s.start, -s.end)):
        if kept and s.end <= kept[-1].end:
            continue
        kept.append(s)
    return kept
