"""Layer tracing from outside the program.

``install`` wraps ivpp's layer functions in the running process.  A name
is patched wherever it is looked up: in every ``ivpp`` module that holds
the function, because ``cli`` keeps its own imported ``decompose`` and
``parse_map``, and the package attributes ``ivpp.raster`` and
``ivpp.decompose`` are functions that shadow the modules of the same name
(hence ``sys.modules``).  Methods are patched on their class.

Coarse layer calls record spans (request, id, parent, name, start, end);
hot per-point methods only count calls, so the trace costs little where
the program makes millions of calls.  Nothing records while ``enabled`` is
false, which keeps the benchmark's own checks out of the counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

import numpy as np

Span = Tuple[str, int, int, str, float, float]  # request, id, parent (-1 none), name, start, end


class Tracer:
    def __init__(self):
        self.enabled = False
        self.request = "setup"
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.empirical: Dict[Tuple[int, int], List[float]] = {}  # (n, m) -> cuts found
        self._stack: List[int] = []
        self._next_id = 0

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid, parent = self._next_id, (self._stack[-1] if self._stack else -1)
            self._next_id += 1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.request, sid, parent, name, start, end))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take(self, request_prefix: str = "") -> Tuple[Dict[str, float], Dict[str, float], Counter]:
        """Total and self seconds per span name for requests with the prefix, and the counts.

        Clears the counts; spans stay for ``dump``.  Self time is a span's
        duration minus the time its child spans cover.
        """
        chosen = [s for s in self.spans if s[0].startswith(request_prefix)]
        total: Dict[str, float] = defaultdict(float)
        child: Dict[int, float] = defaultdict(float)
        for _, _, parent, name, start, end in chosen:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Dict[str, float] = defaultdict(float)
        for _, sid, _, name, start, end in chosen:
            own[name] += end - start - child[sid]
        counts, self.counts = self.counts, Counter()
        return total, own, counts

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for request, sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"request": request, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


# -- count hooks ---------------------------------------------------------------


def _after_kernel(tr, args, kwargs, out):
    tr.counts["kernel.cells"] += int(out.size)
    tr.counts["kernel.useful_cells"] += int(np.count_nonzero(out > 0))


def _after_raster(tr, args, kwargs, raster):
    if kwargs.get("decomp") is not None:
        tr.counts["raster.classified_cells"] += int(np.count_nonzero(raster.component > 0))


def _after_pgm(tr, args, kwargs, data):
    tr.counts["raster.bytes_written"] += len(data)


def _after_csv(tr, args, kwargs, _):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counts["raster.bytes_written"] += os.path.getsize(path)


def _after_denoms(tr, args, kwargs, zs):
    tr.counts["denoms.curve_bytes"] += sum(c.values.nbytes + c.crossing.nbytes for c in zs.curves)


def _after_empirical(tr, args, kwargs, cuts):
    param = args[1] if len(args) > 1 else kwargs["param"]
    branch = getattr(param, "__self__", None)  # decompose passes the bound branch.point
    if branch is not None:
        tr.empirical[(branch.n, branch.m)] = list(cuts)


# -- installation --------------------------------------------------------------


def _patch_everywhere(original, wrapper) -> int:
    """Replace ``original`` by ``wrapper`` in every loaded ivpp module; return the count."""
    patched = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ivpp" or mod_name.startswith("ivpp.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                patched += 1
    return patched


FUNCTION_SPANS = [  # (module, attribute, span name, count hook)
    ("ivpp.kernel", "period_grid", "kernel.period_grid", _after_kernel),
    ("ivpp.raster", "raster", "raster.raster", _after_raster),
    ("ivpp.raster", "lv_raster", "raster.lv_raster", None),
    ("ivpp.denoms", "denominator_zero_curves", "denoms.zero_curves", _after_denoms),
    ("ivpp.decompose", "decompose", "decompose.decompose", None),
    ("ivpp.decompose", "boundaries_empirical", "decompose.empirical", _after_empirical),
    ("ivpp.decompose", "boundaries_analytic", "decompose.analytic", None),
    ("ivpp.dsl", "parse_map", "dsl.parse_map", None),
    ("ivpp.maps", "get_map", "maps.get_map", None),
]

METHOD_SPANS = [  # (class, method, span name, count hook)
    ("TilingRaster", "to_pgm_bytes", "raster.to_pgm_bytes", _after_pgm),
    ("TilingRaster", "to_csv", "raster.to_csv", _after_csv),
]

METHOD_COUNTERS = [  # (class, method, counter name)
    ("RationalMap", "detect_period", "core.detect_period.calls"),
    ("RationalMap", "apply", "core.apply.calls"),
    ("RationalMap", "eval_raw", "core.eval_raw.calls"),
    ("Polynomial", "eval_grid", "poly.eval_grid.calls"),
]


def install() -> Tracer:
    """Import the CLI and wrap every traced layer; returns the (disabled) tracer."""
    import ivpp.cli  # noqa: F401  (cli holds its own references to several layers)

    classes = {
        "TilingRaster": sys.modules["ivpp.raster"].TilingRaster,
        "RationalMap": sys.modules["ivpp.core"].RationalMap,
        "Polynomial": sys.modules["ivpp.poly"].Polynomial,
    }
    tracer = Tracer()
    for mod_name, attr, name, after in FUNCTION_SPANS:
        original = getattr(sys.modules[mod_name], attr)
        if _patch_everywhere(original, tracer.span(name, original, after)) == 0:
            raise RuntimeError(f"{mod_name}.{attr} is not looked up anywhere")
    for cls_name, attr, name, after in METHOD_SPANS:
        cls = classes[cls_name]
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), after))
    for cls_name, attr, name in METHOD_COUNTERS:
        cls = classes[cls_name]
        setattr(cls, attr, tracer.counter(name, getattr(cls, attr)))
    return tracer
