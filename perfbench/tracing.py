"""Out-of-program tracing for the benchmark's traced run.

The tracer replaces public functions of the skipgru modules with wrappers
that record one span per call, then puts every original back.  The program is
not modified: a wrapper is installed on each module attribute through which a
caller resolves the function.  skipgru modules import many helpers by name
(`from .numerics import adam_step`), so `trainer.adam_step` and
`ranking.adam_step` are wrapped as well as `numerics.adam_step`.

A span records its name, start, end, parent span, thread id and request id.
A request is one train step, one query or one command.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

LAYERS = ("corpus", "encoder", "decoder", "numerics", "trainer",
          "vocab_expansion", "probes", "ranking", "fileio", "cli")

# Per-timestep and per-token helpers stay unwrapped: they would multiply the
# span count many times over, and their cost stays in their callers' self time.
UNWRAPPED = frozenset({"numerics.sigmoid", "numerics.softmax",
                       "numerics.log_softmax", "numerics.seed_tuple",
                       "numerics.get_rng", "corpus.tokenize",
                       "corpus.encode_sentence", "corpus.detokenize"})

# Bindings reported under the calling module's name: the ranker's Adam steps
# belong to eval-rank, not to encoder training.
SITE_NAMES = {("ranking", "adam_step"): "ranking.adam_step"}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    tid: int
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patcher:
    """Replaces attributes and puts every original back, newest first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._saved)

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self.patches = Patcher()

    # ------------------------------------------------------------ recording

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.request = 0
        return loc

    @contextmanager
    def request(self):
        """Give every span opened inside the block a fresh request id."""
        loc = self._state()
        saved, loc.request = loc.request, next(self._requests)
        try:
            yield loc.request
        finally:
            loc.request = saved

    @contextmanager
    def span(self, name: str):
        loc = self._state()
        sid = next(self._ids)
        parent = loc.stack[-1] if loc.stack else None
        loc.stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            loc.stack.remove(sid)
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), loc.request))

    def wrap(self, fn, name: str, observe=None, new_request: bool = False):
        """Wrapper recording one span per call; `observe(tracer, args,
        kwargs, result)` runs after the span closes."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # The span runs from the first next() to exhaustion.
                with self.span(name):
                    yield from fn(*args, **kwargs)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_request:
                with self.request(), self.span(name):
                    result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    # ------------------------------------------------------- installation

    def install(self, modules, observers=None, new_requests=()) -> int:
        """Wrap every public skipgru function at each module attribute bound
        to it.  Returns the number of bindings wrapped."""
        observers = observers or {}
        for module in modules:
            site = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in sorted(vars(module).items()):
                name = span_name(site, attr, obj)
                if name is None:
                    continue
                self.patches.patch(module, attr,
                                   self.wrap(obj, name, observers.get(name),
                                             new_request=name in new_requests))
        return len(self.patches)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.patches.restore()

    # ------------------------------------------------------------- output

    def dump(self, path) -> None:
        """Write the spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def span_name(site: str, attr: str, obj) -> str | None:
    """Span name for the binding `site.attr`, or None to leave it alone."""
    if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
        return None
    owner = getattr(obj, "__module__", "") or ""
    if not owner.startswith("skipgru."):
        return None
    layer = owner.rsplit(".", 1)[-1]
    name = f"{layer}.{obj.__name__}"
    if layer not in LAYERS or obj.__name__.startswith("_") or name in UNWRAPPED:
        return None
    # The cli is traced at its entry point only, so its self time covers
    # argument parsing, manifests and the per-line encoding loop.
    if layer == "cli" and obj.__name__ != "main":
        return None
    return SITE_NAMES.get((site, attr), name)


# ---------------------------------------------------------------- analysis


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children's
    intervals, clipped to the span."""
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.duration - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost calls only, so
    recursion is not counted twice) and self seconds."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += selfs[s.sid]
        p = by_id.get(s.parent)
        while p is not None and p.name != s.name:
            p = by_id.get(p.parent)
        if p is None:
            row["total_s"] += s.duration
    return dict(out)


def layer_self_seconds(summary) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += row["self_s"]
    return out


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""
    tracer = Tracer()

    def noop():
        return None
    traced = tracer.wrap(noop, "calibrate.noop")
    best = []
    for f in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(samples):
            f()
        best.append((time.perf_counter() - t0) / samples)
    return max(best[1] - best[0], 0.0)


def default_dump_path(root, workload: str, seed: int) -> str:
    out = os.path.join(root, ".perfbench-out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"spans-{workload}-seed{seed}.jsonl")
