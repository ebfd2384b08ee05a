"""In-memory span tracer that wraps occkit's public functions from outside.

The program is not changed: ``Tracer.install`` replaces each listed function
in every loaded ``occkit`` module that holds it, so calls made through the
names callers imported (``pipeline.bin_points``, ``training.sample_gradients``
and so on) are traced too. ``uninstall`` puts the originals back.

Each wrapped call records a span (id, name, start, end, parent span, phase),
where the phase is ``("setup", repeat)`` or ``("op", index)``. While
``counting`` is true, each wrapped call also adds the layer's counts.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # -1 for a root span
    phase: tuple
    hook_ns: int  # time the tracer spent counting inside this span

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns - self.hook_ns) / 1e9


# --- counts taken from a wrapped call's arguments and result ----------------

def _count_preprocess(a, refs):
    voxels = refs.voxels.values()
    yield "pointprep.ref_points", refs.total_points()
    yield "pointprep.synthetic_points", sum(int((v.source != 0).sum()) for v in voxels)
    yield "pointprep.fill_voxels", sum(1 for v in voxels if (v.source != 0).any())
    yield "pointprep.fps_voxels", sum(1 for b in a["bins"] if b.count > a["cfg"].theta)


def _count_project(a, proj):
    yield "cameras.valid_pairs", int(proj.valid.sum())
    yield "cameras.pairs", int(proj.valid.size)


def _count_fuse(a, result):
    params = a["params"]
    yield "fusion.samples", int(a["proj"].valid.sum()) * params.n_heads * params.n_keys
    yield "fusion.fallback_voxels", int(result[1].fallback_mask.sum())


def _count_decode(a, result):
    report = result[1]
    yield "decoder.selected_voxels", report.selected_voxels
    yield "decoder.candidate_voxels", report.candidate_voxels
    yield "decoder.fine_ops", report.fine_ops
    yield "decoder.full_ops", report.full_ops


def _count_train_epoch(a, mean_loss):
    yield "training.grad_samples", len(a["active_ids"])
    yield "training.mean_loss", mean_loss


def _count_score(a, scores):
    yield "training.scored_samples", len(scores)


# (module, function, span name, count hook). Span name + "_s" is the metric.
TARGETS = [
    ("scenes", "preset", "scenes.synth", None),
    ("scenes", "cast_lidar", "scenes.synth", None),
    ("scenes", "render_views", "scenes.synth", None),
    ("scenes", "rasterize_gt", "scenes.synth", None),
    ("scenes", "load_scene", "scenes.read", None),
    ("scenes", "read_ppm", "scenes.read", None),
    ("pointprep", "read_cloud", "pointprep.read_cloud", None),
    ("grid", "read_occg", "grid.read_occg", None),
    ("grid", "bin_points", "grid.bin", None),
    ("encoders", "encode_lidar", "encoders.lidar", None),
    ("encoders", "encode_images", "encoders.image", None),
    ("pointprep", "preprocess", "pointprep.preprocess", _count_preprocess),
    ("cameras", "project_all", "cameras.project", _count_project),
    ("pipeline", "prepare_sample", "pipeline.prepare", None),
    ("fusion", "occ_fuse", "fusion.forward", _count_fuse),
    ("fusion", "fusion_backward", "fusion.backward", None),
    ("pipeline", "forward_coarse", "pipeline.forward", None),
    ("objectives", "total_loss_logits", "objectives.loss", None),
    ("pipeline", "sample_gradients", "pipeline.gradients", None),
    ("decoder", "decode", "decoder.decode", _count_decode),
    ("pipeline", "predict", "pipeline.predict", None),
    ("training", "train_epoch", "training.train_epoch", _count_train_epoch),
    ("training", "score_samples", "training.score", _count_score),
]

SPAN_NAMES = sorted({t[2] for t in TARGETS})


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(list)  # count name -> one value per record
        self.phase = ("setup", 0)
        self.counting = True
        self._stack = []
        self._next_id = 0
        self._hook_ns = 0  # total time spent in count hooks so far
        self._patches = []

    def count(self, name, value) -> None:
        if self.counting:
            self.counts[name].append(value)

    def _wrap(self, fn, span_name, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            hook_before = self._hook_ns
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(
                    sid, span_name, start, end, parent, self.phase, self._hook_ns - hook_before
                ))
            if hook is not None and self.counting:
                # Counting time is kept out of every enclosing span.
                hook_start = time.perf_counter_ns()
                bound = sig.bind(*args, **kwargs).arguments
                for name, value in hook(bound, result):
                    self.counts[name].append(value)
                self._hook_ns += time.perf_counter_ns() - hook_start
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            return
        loaded = [m for n, m in sorted(sys.modules.items())
                  if (n == "occkit" or n.startswith("occkit.")) and m is not None]
        for module, func, span_name, hook in TARGETS:
            original = getattr(sys.modules[f"occkit.{module}"], func)
            wrapper = self._wrap(original, span_name, hook)
            for m in loaded:
                if getattr(m, func, None) is original:
                    setattr(m, func, wrapper)
                    self._patches.append((m, func, original))

    def uninstall(self) -> None:
        for m, func, original in reversed(self._patches):
            setattr(m, func, original)
        self._patches = []

    # --- summaries -------------------------------------------------------

    def layer_table(self) -> dict:
        """Per span name: calls, inclusive and self seconds over the run."""
        child = defaultdict(int)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end_ns - s.start_ns - s.hook_ns
        table = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.seconds - child[s.id] / 1e9
        return table

    def layer_seconds(self, name) -> float:
        """Median per-op inclusive seconds of one span name.

        A layer that runs only in set-up gives its median per set-up; a
        layer that never ran gives 0.
        """
        per_phase = defaultdict(float)
        for s in self.spans:
            if s.name == name:
                per_phase[s.phase] += s.seconds
        for kind in ("op", "setup"):
            values = [v for (k, _), v in per_phase.items() if k == kind]
            if values:
                return statistics.median(values)
        return 0.0

    def mean(self, name) -> float:
        values = self.counts.get(name)
        return float(statistics.fmean(values)) if values else 0.0

    def share(self, num, den) -> float:
        d = sum(self.counts.get(den, ()))
        return sum(self.counts.get(num, ())) / d if d else 0.0

    def to_json(self) -> dict:
        return {
            "spans": [
                [s.id, s.name, s.start_ns, s.end_ns, s.parent, list(s.phase), s.hook_ns]
                for s in sorted(self.spans, key=lambda s: s.start_ns)
            ],
            "layers": self.layer_table(),
        }
