"""Spans and counters recorded around dioph's public functions, from outside.

``install`` wraps each function named in SPANS and replaces every reference
to it in the loaded ``dioph`` modules, so calls between modules (``cli`` ->
``bounds`` -> ``numerics``) and inside a module (``constants_report`` ->
``mu``) both pass through the wrapper.  dioph itself is not changed.

A span's inclusive time counts only its outermost activation on a thread, so
recursion (``find_root`` inside the ``f`` of another ``find_root``) is not
counted twice.  Self time is the span's duration minus the time its child
spans cover on the same thread; for ``find_root`` and ``scan_brackets`` the
callable ``f`` they are given counts as a child.  Spans are aggregated per
thread in memory and merged when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

MIB = 1 << 20

# (span name, module, attribute); "pgn.io" groups every public writer of pgn.io
SPANS: List[Tuple[str, str, str]] = [
    ("cli.main", "dioph.cli", "main"),
    ("numerics.find_root", "dioph.numerics", "find_root"),
    ("numerics.scan_brackets", "dioph.numerics", "scan_brackets"),
    ("numerics.log", "dioph.numerics", "log"),
    ("bounds.theta", "dioph.bounds", "theta"),
    ("bounds.tau", "dioph.bounds", "tau"),
    ("bounds.mu", "dioph.bounds", "mu"),
    ("bounds.sigma", "dioph.bounds", "sigma"),
    ("bounds.regular_graph_lambda_bound", "dioph.bounds", "regular_graph_lambda_bound"),
    ("bounds.chi_estimate", "dioph.bounds", "chi_estimate"),
    ("bounds.constants_report", "dioph.bounds", "constants_report"),
    ("bounds.beta_for_equality", "dioph.bounds", "beta_for_equality"),
    ("bounds.mm_defect", "dioph.bounds", "mm_defect"),
    ("bounds.dual_bounds", "dioph.bounds", "dual_bounds"),
    ("pgn.enumerate_candidates", "dioph.pgn.vectors", "enumerate_candidates"),
    ("pgn.minimal_points", "dioph.pgn.vectors", "minimal_points"),
    ("pgn.build_q_grid", "dioph.pgn.profile", "build_q_grid"),
    ("pgn.profile", "dioph.pgn.profile", "profile"),
    ("pgn.estimate_exponents", "dioph.pgn.analysis", "estimate_exponents"),
    ("pgn.intersection_diagnostics", "dioph.pgn.analysis", "intersection_diagnostics"),
    ("pgn.minkowski_defect", "dioph.pgn.profile", "minkowski_defect"),
    ("pgn.io", "dioph.pgn.io", "write_sequence_csv"),
    ("pgn.io", "dioph.pgn.io", "write_profile_csv"),
    ("pgn.io", "dioph.pgn.io", "write_diagnostics_csv"),
    ("pgn.io", "dioph.pgn.io", "sequence_to_dicts"),
    ("pgn.io", "dioph.pgn.io", "profile_to_dicts"),
    ("pgn.io", "dioph.pgn.io", "estimates_to_dict"),
    ("pgn.io", "dioph.pgn.io", "theorem_report_to_dict"),
    ("pgn.io", "dioph.pgn.io", "dump_json"),
    ("pgn.vector_L", "dioph.pgn.profile", "vector_L"),
    ("pgn.intrank.try_add", "dioph.pgn.intrank", "IntBasis.try_add"),
]
SPAN_NAMES: List[str] = list(dict.fromkeys(name for name, _, _ in SPANS))
# spans whose first argument is the callable they solve or scan
EVAL_SPANS = ("numerics.find_root", "numerics.scan_brackets")

# per-layer metric name -> (unit, better); every span gives .calls, .s, .self_s
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.s"] = ("s", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "numerics.find_root.evals": ("count", "lower"),
    "numerics.scan_brackets.evals": ("count", "lower"),
    "pgn.pool_size": ("count", "lower"),
    "pgn.records": ("count", "higher"),
    "pgn.grid_points": ("count", "lower"),
    "pgn.records_per_candidate": ("ratio", "higher"),
    "pgn.profile.evals_per_q": ("count/q", "lower"),
    "pgn.enumerate_candidates.peak_mb": ("MB", "lower"),
})


class _ThreadState:
    __slots__ = ("stack", "active", "spans", "counts")

    def __init__(self):
        self.stack: List[List[float]] = []  # [child seconds] per open span
        self.active: Dict[Optional[str], int] = defaultdict(int)
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts: Dict[str, int] = defaultdict(int)


class Tracer:
    """Aggregated spans and counters; one per traced run."""

    def __init__(self):
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self.originals: Dict[str, Callable] = {}
        self.first_enumeration: Optional[Tuple[tuple, dict]] = None

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _timed(self, name: Optional[str], fn: Callable, args, kwargs):
        """Run fn as a span called name (None: an anonymous child, such as f)."""
        st = self._state()
        frame = [0.0]
        st.stack.append(frame)
        st.active[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = time.perf_counter() - t0
            st.stack.pop()
            st.active[name] -= 1
            if st.stack:
                st.stack[-1][0] += d
            if name is not None:
                rec = st.spans[name]
                rec[0] += 1
                rec[2] += d - frame[0]
                if not st.active[name]:
                    rec[1] += d

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name in EVAL_SPANS:
            evals = f"{name}.evals"

            def counted(f):
                def g(*a, **k):
                    self._state().counts[evals] += 1
                    return self._timed(None, f, a, k)
                return g

            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                return self._timed(name, fn, (counted(f),) + args, kwargs)
            return wrapper

        after = {
            "pgn.enumerate_candidates": self._after_enumeration,
            "pgn.minimal_points": lambda r, a, k: self._count("pgn.records", len(r)),
            "pgn.build_q_grid": lambda r, a, k: self._count("pgn.grid_points", len(r)),
            "pgn.vector_L": self._after_vector_L,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._timed(name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _count(self, key: str, k: int = 1) -> None:
        self._state().counts[key] += k

    def _after_enumeration(self, result, args, kwargs) -> None:
        self._count("pgn.pool_size", len(result))
        if self.first_enumeration is None:
            self.first_enumeration = (args, kwargs)

    def _after_vector_L(self, result, args, kwargs) -> None:
        if self._state().active.get("pgn.profile"):
            self._count("pgn.profile.vector_L")

    def install(self) -> None:
        """Wrap every SPANS function in the dioph modules already imported."""
        modules = [m for key, m in list(sys.modules.items()) if key == "dioph" or key.startswith("dioph.")]
        for name, module_name, attr in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: replace it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self.originals[f"{module_name}.{attr}"] = original
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, key, wrapper)

    def enumeration_peak_mb(self) -> float:
        """tracemalloc peak of one untraced repeat of the first enumeration.

        Run after the timed rounds, so tracemalloc's overhead reaches no span.
        """
        if self.first_enumeration is None:
            return 0.0
        args, kwargs = self.first_enumeration
        tracemalloc.start()
        try:
            self.originals["dioph.pgn.vectors.enumerate_candidates"](*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()

    def per_layer(self, rounds: int, peak_mb: float) -> Dict[str, float]:
        """Every PER_LAYER metric, per round of the workload."""
        spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        counts: Dict[str, int] = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, rec in st.spans.items():
                for i in range(3):
                    spans[key][i] += rec[i]
            for key, c in st.counts.items():
                counts[key] += c
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, incl, self_s = spans[name]
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.s"] = incl / rounds
            out[f"{name}.self_s"] = self_s / rounds
        for key in ("numerics.find_root.evals", "numerics.scan_brackets.evals",
                    "pgn.pool_size", "pgn.records", "pgn.grid_points"):
            out[key] = counts[key] / rounds
        pool, grid = counts["pgn.pool_size"], counts["pgn.grid_points"]
        out["pgn.records_per_candidate"] = counts["pgn.records"] / pool if pool else 0.0
        out["pgn.profile.evals_per_q"] = counts["pgn.profile.vector_L"] / grid if grid else 0.0
        out["pgn.enumerate_candidates.peak_mb"] = peak_mb
        return out
