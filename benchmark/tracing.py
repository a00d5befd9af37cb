"""Outside-in layer trace of dcpreg.

Installing a :class:`Tracer` replaces module attributes of ``dcpreg``
(functions of ``dcpnet``, ``geometry``, ``icp``, ``autodiff`` and ``train``,
plus ``icp.SpatialIndex.query_many``) with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back. The program's code is not
edited: every call site in dcpreg reaches these functions through a module
attribute (``ad.affine``) or a module global (``backward`` inside
``Tape.backward``), and both are looked up at call time.

Two kinds of record are kept in memory:

* spans, one per call into a stage (name, start, end, parent span), from
  which each stage's self time is derived: its duration minus the time its
  child spans cover;
* counters for the autodiff primitives (forward and backward seconds and
  calls). Primitives run inside the stages, so they are a second,
  cross-cutting split of the same time and are not subtracted from spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from dcpreg import autodiff, dcpnet, geometry, icp, train

# Stages recorded as spans: metric prefix -> (owner, attribute).
SPAN_TARGETS = {
    "dcpnet.knn_graph": (dcpnet, "knn_graph"),
    "dcpnet.embed_cloud": (dcpnet, "embed_cloud"),
    "dcpnet.transformer_attention": (dcpnet, "transformer_attention"),
    "dcpnet.pointer_softmatch": (dcpnet, "pointer_softmatch"),
    "dcpnet.dcp_forward": (dcpnet, "dcp_forward"),
    "dcpnet.dcp_predict": (dcpnet, "dcp_predict"),
    "geometry.svd3": (geometry, "svd3"),
    "geometry.procrustes_solve": (geometry, "procrustes_solve"),
    "icp.icp_register": (icp, "icp_register"),
    "icp.SpatialIndex.query_many": (icp.SpatialIndex, "query_many"),
    "autodiff.backward": (autodiff, "backward"),
    "train.adam_step": (train, "adam_step"),
    "train.train": (train, "train"),
    "train.load_checkpoint": (train, "load_checkpoint"),
}

# Tape primitives timed forward (the op call) and backward (its backward_fn).
OPS = (
    "affine", "matmul", "gather", "batch_norm", "layer_norm", "softmax", "max_reduce",
    "svd_rotation", "add", "sub", "mul", "reshape", "transpose", "concat", "relu",
)


def _layer_metrics() -> dict[str, str]:
    """Reported per-layer metrics, in order: name -> unit. Every value is per
    registered or trained pair, except ``repeat_frac`` (a share of calls),
    ``train.load_checkpoint.s`` (seconds per load) and ``trace.overhead_s``."""
    stages = ("dcpnet.knn_graph", "dcpnet.embed_cloud", "dcpnet.transformer_attention",
              "dcpnet.pointer_softmatch", "dcpnet.dcp_forward", "dcpnet.dcp_predict")
    metrics = {f"{stage}.s": "s" for stage in stages}
    metrics.update({
        "dcpnet.knn_graph.calls": "count",
        "dcpnet.knn_graph.repeat_frac": "ratio",
        "geometry.svd3.s": "s",
        "geometry.svd3.calls": "count",
        "geometry.procrustes_solve.s": "s",
        "icp.icp_register.s": "s",
        "icp.iterations": "count",
        "icp.SpatialIndex.query_many.s": "s",
        "icp.SpatialIndex.query_many.calls": "count",
        "autodiff.backward.s": "s",
        "autodiff.tape_entries": "count",
    })
    for op in OPS:
        metrics.update({f"autodiff.{op}.fwd_s": "s", f"autodiff.{op}.bwd_s": "s", f"autodiff.{op}.calls": "count"})
    metrics.update({
        "train.adam_step.s": "s",
        "train.adam_step.calls": "count",
        "train.train.s": "s",
        "train.load_checkpoint.s": "s",
        "trace.overhead_s": "s",
    })
    return metrics


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Span and counter recorder for one traced run; a context manager that
    installs its wrappers on entry and removes them on exit. It may be
    entered many times; the records add up."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._seen_clouds: set[bytes] = set()
        self._originals: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for name, (owner, attr) in SPAN_TARGETS.items():
            fn = getattr(owner, attr)
            wrapped = self._span(name, fn)
            if name == "dcpnet.knn_graph":
                wrapped = self._count_repeats(wrapped)
            elif name == "icp.icp_register":
                wrapped = self._count_iterations(wrapped)
            elif name == "autodiff.backward":
                wrapped = self._time_backward_fns(wrapped)
            self._patch(owner, attr, wrapped)
        for op in OPS:
            self._patch(autodiff, op, self._op(op, getattr(autodiff, op)))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _count_repeats(self, knn_span):
        @functools.wraps(knn_span)
        def wrapper(points, k, *args, **kwargs):
            pts = np.asarray(getattr(points, "points", points), dtype=np.float64)
            key = hashlib.blake2b(pts.tobytes() + int(k).to_bytes(4, "little"), digest_size=16).digest()
            if key in self._seen_clouds:
                self.counts["dcpnet.knn_graph.repeats"] += 1
            self._seen_clouds.add(key)
            return knn_span(points, k, *args, **kwargs)

        return wrapper

    def _count_iterations(self, icp_span):
        @functools.wraps(icp_span)
        def wrapper(*args, **kwargs):
            transform, history = icp_span(*args, **kwargs)
            # Every history entry after the first follows one alignment step.
            self.counts["icp.iterations"] += len(history) - 1
            return transform, history

        return wrapper

    def _time_backward_fns(self, backward_span):
        @functools.wraps(backward_span)
        def wrapper(tape, output):
            self.counts["autodiff.tape_entries"] += len(tape.entries)
            for entry in tape.entries:
                entry.backward_fn = self._timed(f"autodiff.{entry.op}.bwd_s", entry.backward_fn)
            return backward_span(tape, output)

        return wrapper

    def _timed(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key] += perf_counter() - start

        return wrapper

    def _op(self, op: str, fn):
        counts = self.counts
        fwd_key, calls_key = f"autodiff.{op}.fwd_s", f"autodiff.{op}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[fwd_key] += perf_counter() - start
                counts[calls_key] += 1

        return wrapper

    # -- results ------------------------------------------------------------

    def stage_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count of each span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_time[name] += (end - start) - inner
            calls[name] += 1
        return self_time, calls

    def layer_metrics(self, pairs: int, overhead_s: float) -> dict[str, float]:
        """Every entry of :data:`LAYER_METRICS`, normalised per pair."""
        if pairs < 1:
            raise ValueError("layer metrics need at least one traced pair")
        self_time, calls = self.stage_totals()
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            if name.endswith(".s"):
                out[name] = self_time[name[:-2]] / pairs
            elif name.endswith(".calls") and name[:-6] in SPAN_TARGETS:
                out[name] = calls[name[:-6]] / pairs
            else:
                out[name] = self.counts[name] / pairs
        knn_calls = calls["dcpnet.knn_graph"]
        out["dcpnet.knn_graph.repeat_frac"] = (
            self.counts["dcpnet.knn_graph.repeats"] / knn_calls if knn_calls else 0.0
        )
        loads = calls["train.load_checkpoint"]
        out["train.load_checkpoint.s"] = self_time["train.load_checkpoint"] / loads if loads else 0.0
        out["trace.overhead_s"] = overhead_s
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as ``[name, start_s, end_s, parent]``, one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
