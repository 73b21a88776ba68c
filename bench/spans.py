"""Span recorder for the traced run, installed from outside the library.

``Recorder.install`` replaces every public module-level function of each
``cotorsion`` module by a wrapper that records a span (name, start, end,
parent) in memory, and rebinds the same wrapper under every name another
module imported it as (``from .quadring import ideal_mul`` and friends).
The library's source is not touched.

Two kinds of function are recorded differently:

* a generator function gets one span per resumption, because its work
  happens while the caller iterates;
* ``search.shells`` gets no spans at all: it yields one candidate vector
  per step, so it only counts candidates against the innermost open span.

``metrics`` turns the spans into the per-layer numbers listed in
BENCHMARK.json.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = (
    "arith", "intmat", "projline", "lattice2", "latenum",
    "quadring", "okproj", "okmodules", "dirichlet", "cli",
)

# functions whose result length is recorded (points produced by ok_enumerate)
SIZED = ("okproj.ok_enumerate",)


class Recorder:
    """In-memory spans: parallel arrays indexed by span id, ids in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_candidates = array("q")
        self.calls: dict[str, int] = {}
        self.sized: dict[str, int] = {}
        self.stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_candidates.append(0)
        self.span_end.append(0)
        self.stack.append(sid)
        self.span_start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, one per timed call."""
        nid = self._name_id(name)
        self.calls[name] += 1
        sid = self._open(nid)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap_function(self, name: str, fn):
        nid = self._name_id(name)
        calls = self.calls
        sized = name in SIZED

        def wrapper(*args, **kwargs):
            calls[name] += 1
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if sized:
                self.sized[name] = self.sized.get(name, 0) + len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        nid = self._name_id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    sid = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    yield item
            finally:
                inner.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_candidates(self, name: str, fn):
        self._name_id(name)
        calls = self.calls
        counts = self.span_candidates
        stack = self.stack

        def wrapper(*args, **kwargs):
            calls[name] += 1
            for item in fn(*args, **kwargs):
                if stack[-1] >= 0:
                    counts[stack[-1]] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (short name -> module object)."""
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "search.shells":
                    wrappers[id(obj)] = self._wrap_candidates(name, obj)
                elif inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = self._wrap_generator(name, obj)
                else:
                    wrappers[id(obj)] = self._wrap_function(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    # -------------------------------------------------------------- output

    def write(self, path: Path) -> None:
        """Write the spans as a JSON header plus the raw arrays, in that order.

        Header keys: names, count, and the array typecodes; the arrays
        follow as native-endian binary: name id, parent id (-1 for a
        root), start ns, end ns.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [["name", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
        }
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)

    def metrics(self) -> dict[str, float]:
        """Per-layer and per-function numbers plus the waste ratios.

        The base of ``dirichlet.ok_pf1_series_per_check`` is the number of
        ``bench.zeta-ok`` spans, one per O_K identity check the benchmark
        ran.
        """
        n = len(self.span_name)
        names = self.names
        nid = self.name_ids.get
        dur = array("q", (self.span_end[i] - self.span_start[i] for i in range(n)))
        child = array("q", bytes(8 * n))
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ns: dict[str, int] = {}
        for i in range(n):
            name = names[self.span_name[i]]
            self_ns[name] = self_ns.get(name, 0) + dur[i] - child[i]

        def nearest(target: str) -> list[int]:
            """For each span, the id of its nearest ancestor-or-self named target, else -1."""
            t = nid(target, -2)
            out = array("i", [-1]) * n
            for i in range(n):
                if self.span_name[i] == t:
                    out[i] = i
                elif parent[i] >= 0:
                    out[i] = out[parent[i]]
            return out

        def count_under(target: str, inner: str, roots=None) -> tuple[int, int]:
            """(spans named inner below a target span, number of target spans) over roots."""
            anc = nearest(target)
            t = nid(target, -2)
            k = nid(inner, -2)
            tops = {i for i in range(n) if self.span_name[i] == t and (roots is None or i in roots)}
            below = sum(1 for i in range(n)
                        if self.span_name[i] == k and parent[i] >= 0 and anc[parent[i]] in tops)
            return below, len(tops)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.calls"] = sum(c for k, c in self.calls.items() if k.startswith(prefix))
            out[f"{layer}.self_s"] = sum(v for k, v in self_ns.items() if k.startswith(prefix)) / 1e9
        for fn in ("intmat.row_hnf", "intmat.smith_normal_form", "okproj.unit_residues",
                   "dirichlet.series_ok_pf1"):
            out[f"{fn}.calls"] = self.calls.get(fn, 0)
            out[f"{fn}.self_s"] = self_ns.get(fn, 0) / 1e9
        for fn in ("quadring.ideal_mul", "quadring.is_principal", "quadring.element_avoiding",
                   "okproj.is_unimodular_pair", "arith.factorize"):
            out[f"{fn}.calls"] = self.calls.get(fn, 0)
        for fn in ("quadring.primes_above", "okproj.ok_class_of", "okproj.ok_enumerate"):
            out[f"{fn}.self_s"] = self_ns.get(fn, 0) / 1e9
        for fn in ("okmodules.proj_invariant_element", "okmodules.reconstruct"):
            anc = nearest(fn)
            t = nid(fn, -2)
            total = sum(dur[i] for i in range(n)
                        if self.span_name[i] == t and (parent[i] < 0 or anc[parent[i]] < 0))
            out[f"{fn}.s"] = total / 1e9
        out["search.candidates"] = sum(self.span_candidates)

        # classifications that had to find a point (I != O) run the witness search
        cls_anc = nearest("okmodules.proj_invariant_element")
        wit = nid("okmodules.witnesses", -2)
        searching = {cls_anc[i] for i in range(n) if self.span_name[i] == wit and cls_anc[i] >= 0}
        below, _ = count_under("okmodules.proj_invariant_element", "okmodules.invariant_ideals", searching)
        out["okmodules.invariant_ideals_per_classify"] = ratio(below, len(searching))
        below, tops = count_under("okmodules.proj_invariant_element", "quadring.is_principal")
        out["okmodules.principal_tests_per_classify"] = ratio(below, tops)
        cand = sum(self.span_candidates[i] for i in range(n) if cls_anc[i] >= 0)
        out["search.candidates_per_classify"] = ratio(cand, tops)
        below, _ = count_under("okproj.ok_enumerate", "okproj.is_unimodular_pair")
        out["okproj.unimodular_tests_per_point"] = ratio(below, self.sized.get("okproj.ok_enumerate", 0))
        below, tops = count_under("okproj.coprime_lift", "okproj.is_coprime_pair")
        out["okproj.coprime_tries_per_lift"] = ratio(below, tops)
        below, tops = count_under("bench.zeta-ok", "dirichlet.series_ok_pf1")
        out["dirichlet.ok_pf1_series_per_check"] = ratio(below, tops)
        return out
