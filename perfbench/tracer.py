"""Spans recorded from outside the program, and the statistics built on them.

A `Tracer` replaces module attributes (functions, or methods on a class)
with wrappers that record one span per call: name, start, end, parent span
and step id.  Names are wrapped where the *calling* module looks them up, so
`fpsi.stepping.solve` (called by `advance_step` and `solve_extension`) and
`fpsi.assembly.apply_dirichlet` (called by `assemble_system`) are separate
entry points even when they reach the same function object.  Spans stay in
memory; `Tracer.restore` puts every patched attribute back.

Nothing here imports numpy or fpsi, so the arithmetic can be tested on
synthetic spans.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None     # index into Tracer.spans
    step: int = 0                    # id of the latest step span begun
    meta: Dict[str, float] = field(default_factory=dict)
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


_MISSING = object()


class Tracer:
    """Records spans around patched attributes; use as a context manager.

    `step_names` are the span names that start a new step: every span opened
    afterwards carries that step's id until the next one begins.  `observers`
    map a span name to a callback `(span, args, result)` that fills
    `span.meta` from the call's arguments and return value.
    """

    def __init__(self, step_names: Sequence[str] = (),
                 observers: Optional[Dict[str, Callable]] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self.step_names = frozenset(step_names)
        self.observers = dict(observers or {})
        self.clock = clock
        self.steps = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        if name in self.step_names:
            self.steps += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, step=self.steps))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.failed = failed
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order: closing %d, top %d"
                               % (idx, popped))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span of the given name."""
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, failed=True)
            raise
        observer = self.observers.get(name)
        if observer is not None:
            observer(self.spans[idx], args, result)
        self._close(idx, failed=False)
        return result

    # -- patching ----------------------------------------------------------

    def patch(self, target: str, name: str) -> None:
        """Wrap `package.module.attr` or `package.module.Class.attr`.

        A target that does not resolve raises, so a renamed entry point
        stops the benchmark instead of silently dropping its layer.
        """
        owner, attr = resolve_owner(target)
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING or not callable(original):
            raise AttributeError("cannot trace %s: no such function" % target)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def resolve_owner(target: str):
    """Split a dotted target into (module or class, attribute name)."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            obj = getattr(obj, part)
        return obj, parts[-1]
    raise ImportError("cannot import a module from %r" % target)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def qualified_name(spans: Sequence[Span], idx: int,
                   roles: Dict[str, Dict[str, str]]) -> str:
    """Span name, suffixed by the role its parent span gives it.

    `roles[name][parent_name]` is the role, e.g.
    roles["solver.solve"]["stepping.solve_extension"] = "extension"; a span
    whose name or parent is not listed keeps its bare name.
    """
    s = spans[idx]
    by_parent = roles.get(s.name)
    if not by_parent or s.parent is None:
        return s.name
    role = by_parent.get(spans[s.parent].name)
    return s.name if role is None else "%s.%s" % (s.name, role)


# ---------------------------------------------------------------------------
# Sample statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest of TAIL_PERCENTILES with at least TAIL_MIN_BEYOND samples
    beyond it; the median when fewer than 2 * TAIL_MIN_BEYOND samples exist."""
    best = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = pct
    return best


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail value, the tail's percentile and the sample count."""
    tail = tail_percentile(len(values))
    return {"p50": percentile(values, 50.0), "tail": percentile(values, tail),
            "tail_pct": tail, "n": len(values)}
