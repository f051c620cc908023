"""Span recording around the public functions of the svbackend modules.

The tracer patches module and class attributes with timing wrappers and
restores the originals on exit, so the program under test is unchanged.
Spans are kept in memory as (id, name, start, end, parent, run_id) and
summarized into per-name call counts, inclusive time and self time (the
span's duration minus the part covered by its child spans).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Layers whose public functions are traced; `errors` does no work.
TRACED_MODULES = ("corpus", "transform", "jb", "hybrid", "metrics", "synth")
# Public methods that sit on layer boundaries. Per-element helpers such as
# EmbeddingSet.row and corpus.fmt_float run millions of times per command
# and would swamp the trace, so they stay unwrapped.
TRACED_METHODS = (
    ("corpus", "TrialList", "index_arrays"),
    ("corpus", "ScoreSet", "with_labels"),
    ("corpus", "EmbeddingSet", "speaker_codes"),
)
UNTRACED = {"corpus.fmt_float"}


def _pool_pairs(args, kwargs, result):
    codes = args[0] if args else kwargs["speaker_codes"]
    m = np.bincount(np.unique(np.asarray(codes), return_inverse=True)[1])
    return int(np.sum(m * (m - 1) // 2))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _batch_pairs(args, kwargs, result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return len(batch)


def _trial_count(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["trials"])


def _forward_pairs(args, kwargs, result):
    return int(np.size(result[0]))


def _em_iters(args, kwargs, result):
    # one log-likelihood per iteration plus the final one
    return len(result.em_log_likelihoods) - 1


# name -> (counter key, function of (args, kwargs, result)); evaluated after
# the span closes, so the counting work is not charged to the span.
COUNTERS = {
    "corpus.sample_pair_indices": ("pool_pairs", _pool_pairs),
    "corpus.load_embeddings": ("bytes", _file_bytes),
    "hybrid.loss_and_grad": ("pairs", _batch_pairs),
    "hybrid.score_trials": ("trials", _trial_count),
    "hybrid.forward": ("pairs", _forward_pairs),
    "jb.fit_jb_em": ("iters", _em_iters),
}


class Tracer:
    """Wraps svbackend's public functions while installed (a context manager)."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name` (used for top-level commands)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        counts = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            counts["calls"] += 1
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == self.package or n.startswith(self.package + ".")
        ]
        for short in TRACED_MODULES:
            module = sys.modules[f"{self.package}.{short}"]
            for attr, fn in sorted(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNTRACED):
                    continue
                wrapper = self._wrap(name, fn)
                # also patch names bound by `from .module import fn` elsewhere
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, other_attr, wrapper)
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"{self.package}.{short}"], cls_name)
            name = f"{short}.{cls_name}.{attr}"
            self._set(cls, attr, self._wrap(name, vars(cls)[attr]))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds and self seconds."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _, _ in self.spans:
            row = out[name]
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, _, start, end, parent, _ in self.spans if parent is None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "run_id"],
                    "spans": self.spans,
                    "counts": {k: dict(v) for k, v in self.counts.items()},
                    "summary": self.summary(),
                },
                fh,
            )
            fh.write("\n")
