"""Spans around conekit's module boundaries, recorded from outside src/.

conekit modules import names directly (`from .simplex import
series_contribution`), so a wrapper has to replace the attribute of every
importing module.  `Tracer.install` does that for each function in
`BOUNDARIES` and `Tracer.remove` restores the originals.  Every call
records one span (id, name, start, end, parent id); spans stay in memory
until `dump`.  Self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _ip(c, args, kwargs, out):
    c["ip." + out.status] += 1


def _leaves(c, args, kwargs, out):
    c["leaves"] += len(out)
    c["max_leaf_det"] = max([c["max_leaf_det"], *(s.det for s in out)])


def _approx(c, args, kwargs, out):
    c["approx.hits"] += bool(out)
    c["approx.points"] += len(out)


def _series(c, args, kwargs, out):
    c["series.points"] += _first(args, kwargs, "s").det


def _reduce(prefix):
    def hook(c, args, kwargs, out):
        c[prefix + ".in"] += len(_first(args, kwargs, "candidates"))
        c[prefix + ".out"] += len(out)
    return hook


# (defining module, function, span name, result hook, wrap inside the
# defining module too).  simplex's own internal calls stay unwrapped:
# its layer time is measured where other layers call into it.
BOUNDARIES = (
    ("cli", "parse_input", "cli.parse_input", None, True),
    ("cli", "render_report", "cli.render_report", None, True),
    ("pipeline", "compute", "pipeline.compute", None, False),
    ("cone", "build_cone", "cone.build_cone", None, True),
    ("cone", "triangulate", "cone.triangulate",
     lambda c, a, k, out: c.update({"simplices": len(out)}), True),
    ("cone", "dual_description", "cone.dual_description", None, True),
    ("cone", "make_simplicial_cone", "cone.make_simplicial_cone", None, True),
    ("linalg", "adjugate", "linalg.adjugate", None, True),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form", None, True),
    ("subdivide", "solve_star_ip", "subdivide.solve_star_ip", _ip, True),
    ("subdivide", "stellar_subdivide", "subdivide.stellar_subdivide", None, True),
    ("subdivide", "recursive_subdivide", "subdivide.recursive_subdivide",
     _leaves, True),
    ("approx", "approx_candidates", "approx.approx_candidates", _approx, True),
    ("approx", "approximate_cone", "approx.approximate_cone", None, True),
    ("simplex", "series_contribution", "simplex.series_contribution",
     _series, False),
    ("simplex", "residue_blocks", "simplex.residue_blocks",
     lambda c, a, k, out: c.update({"hb.points": len(out)}), False),
    ("simplex", "points_from_block", "simplex.points_from_block", None, False),
    ("simplex", "hb_candidates", "simplex.hb_candidates",
     lambda c, a, k, out: c.update({"hb.points": len(out)}), False),
    ("collect", "reduce_to_hilbert_basis", "collect.reduce_to_hilbert_basis",
     _reduce("collect.reduce"), False),
    ("collect", "accumulate_series", "collect.accumulate_series",
     lambda c, a, k, out: c.update({"series.terms": len(_first(a, k, "contribs"))}),
     False),
)

# the approximation's own reduction is its layer's work, not collect's
RENAMED = {("approx", "reduce_to_hilbert_basis"):
           ("approx.reduce_to_hilbert_basis", _reduce("approx.reduce"))}


class Tracer:
    def __init__(self):
        self.spans = []              # (id, name, start, end, parent id)
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []           # (module, attr, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def _record(self, sid, name, start, end, parent, hook, args, kwargs, out):
        with self._lock:
            self.spans.append((sid, name, start, end, parent))
            if hook is not None:
                hook(self.counts, args, kwargs, out)

    def wrap(self, fn, name, hook=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, hook)

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self._record(sid, name, start, end, parent, hook, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name, hook):
        """One span per item produced; the consumer's time between items
        belongs to the consumer."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            stack = self._stack()
            while True:
                sid = next(self._ids)
                parent = stack[-1]
                stack.append(sid)
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    stack.pop()
                self._record(sid, name, start, end, parent, hook, args,
                             kwargs, item)
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every boundary function on every conekit module holding it."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in ("cli", "pipeline", "cone", "linalg",
                                         "subdivide", "approx", "simplex",
                                         "collect")]
        for home, attr, name, hook, inner in BOUNDARIES:
            home_mod = importlib.import_module(f"{package.__name__}.{home}")
            orig = getattr(home_mod, attr, None)
            if orig is None:
                continue
            for mod in modules:
                if getattr(mod, attr, None) is not orig:
                    continue
                if mod is home_mod and not inner:
                    continue
                short = mod.__name__.rsplit(".", 1)[-1]
                span_name, span_hook = RENAMED.get((short, attr), (name, hook))
                self._patched.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, span_name, span_hook))

    def remove(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    @staticmethod
    def totals(spans):
        """Per span name: (calls, self seconds)."""
        child = defaultdict(float)
        for _, _, start, end, parent in spans:
            child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for sid, name, start, end, _ in spans:
            calls[name] += 1
            self_s[name] += end - start - child[sid]
        return calls, self_s

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
