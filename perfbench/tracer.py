"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps the public functions of each module of
``arrlevels`` and rebinds every wrapper in each module that holds the
original under the same name (``isolate_roots`` in ``motion`` as well as in
``exactnum``).  A wrapped call records a span (op id, span id, parent span
id, name, start, end).  Spans are kept in memory, up to SPAN_KEEP of them,
and written out by
``write_spans`` when the run ends; calls and self time are aggregated for
every span, kept or not.

Self time is a span's duration minus the time its child spans cover.  The
library is single-threaded, so children nest inside their parent and never
overlap, and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Public functions per layer, as "<function>" or "<Class>.<method>".
LAYERS = {
    "faces": ["f_matrix", "fstar_matrix", "dissection_patterns", "dependency_patterns"],
    "config": ["gen_random", "new_config", "gale_dual", "contract", "delete"],
    "exactnum": [
        "det",
        "rank",
        "kernel_basis",
        "isolate_roots",
        "count_distinct_roots",
        "bisect_root_interval",
        "squarefree_part",
        "poly_gcd",
    ],
    "poly2": ["BiPoly.mul", "BiPoly.pow", "substitute", "from_matrix"],
    "relations": [
        "check_totals",
        "check_antipodal",
        "check_dehn_sommerville",
        "f_fstar_transform",
        "total_face_count",
    ],
    "gmatrix": ["g_of_pair", "g_from_fmatrices", "delta_f_from_g", "check_contraction_deletion"],
    "motion": ["detect_mutations", "g_from_motion", "perturb"],
    "span": ["g_span_rank", "exact_rank", "greedy_basis"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
SPAN_KEEP = 200_000  # about 30 MB of span tuples


def candidate_patterns(n: int, d: int) -> int:
    """Sign vectors vertex-local expansion generates before deduplication:
    2 vertices per d-subset of the n columns, 3^d local sign choices each."""
    return 2 * math.comb(n, d) * 3**d


class Tracer:
    def __init__(self):
        self.op = -1
        self.recording = True
        self.stack: list[list] = []  # [span id, child time, name] per open span
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """fn wrapped to record one span per call; after(args, result) runs
        on success, outside the span."""
        stack, spans, calls, self_s = self.stack, self.spans, self.calls, self.self_s

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0, name]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if not ok:
                    self.errors[name] += 1
                if len(spans) < SPAN_KEEP:
                    spans.append((self.op, sid, parent, name, start, end))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of LAYERS and rebind it wherever it is bound."""
        holders = [m for k, m in sys.modules.items() if k == "arrlevels" or k.startswith("arrlevels.")]
        faces = importlib.import_module("arrlevels.faces")
        pattern_cache = faces._pattern_tuple
        seen_misses = [pattern_cache.cache_info().misses]

        def after_patterns(args, result):
            # A computed enumeration shows as a new miss of the pattern cache.
            misses = pattern_cache.cache_info().misses
            if misses == seen_misses[0]:
                return
            seen_misses[0] = misses
            v = args[0]
            in_dual = self.stack and self.stack[-1][2] == "faces.dependency_patterns"
            route = "dependency_patterns" if in_dual else "dissection_patterns"
            for key in ("faces", f"faces.{route}"):
                self.counts[f"{key}.kept"] += len(result)
                self.counts[f"{key}.candidates"] += candidate_patterns(v.n, v.d)

        def after_detect(args, path):
            self.counts["motion.events"] += len(path.events)

        hooks = {"faces.dissection_patterns": after_patterns, "motion.detect_mutations": after_detect}
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"arrlevels.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    self._bind(cls, attr, orig, self.wrap(name, orig, hooks.get(name)))
                    continue
                orig = getattr(home, fn)
                wrapper = self.wrap(name, orig, hooks.get(name))
                for mod in holders:
                    if mod.__dict__.get(fn) is orig:
                        self._bind(mod, fn, orig, wrapper)

    def _bind(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans_kept": len(self.spans), "spans_dropped": self.dropped}) + "\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps({"op": op, "id": sid, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )
