"""Outside-in layer trace: spans recorded around the package's functions.

The package's modules reach each other through names bound by
``from .params import geometry`` and the like, so wrapping a function only
in its defining module records nothing.  ``Tracer.install`` wraps each
traced function at every module-level name in the package that holds it,
and ``Tracer.uninstall`` puts the originals back.

A span is ``(name, start, end, parent, raised)``, with ``parent`` the index
of the enclosing span in the same list, or -1.  The spans of one point are
kept in memory until the point ends, then folded into per-function totals,
so memory stays flat however long the run is.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs on the evaluation path
TRACED = (
    ("params", "validate"),
    ("params", "geometry"),
    ("special", "erfc"),
    ("special", "erfcx"),
    ("coeffs", "d_coefficients"),
    ("expansion", "cdf"),
    ("expansion", "cdf_asym"),
    ("expansion", "sf_asym"),
    ("oracle", "cdf_quad_split"),
)

ROOT = "point"


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlapping, so the children's
    durations are the part of the parent's interval they cover.  A ``None``
    slot (a span whose bookkeeping an interrupt cut short) is skipped and
    gets self time 0.
    """
    own = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span is None:
            continue
        _, start, end, parent, _ = span
        own[i] += end - start
        if parent >= 0 and spans[parent] is not None:
            own[parent] -= end - start
    return own


class LayerTotals:
    """Per-function calls, self time and escaped exceptions over many points."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.root_s = 0.0

    def add(self, spans) -> None:
        for span, own in zip(spans, self_times(spans)):
            if span is None:
                continue
            name, start, end, parent, raised = span
            if parent < 0:
                self.root_s += end - start
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.errors[name] = self.errors.get(name, 0) + int(raised)

    def metrics(self, names, points: int, speed_factor: float = 1.0) -> dict[str, tuple[float, str]]:
        """``<name>.calls_per_point``, ``.self_us``, ``.self_frac`` and ``.errors``.

        ``self_us`` is scaled by ``speed_factor`` to the nominal machine speed.
        """
        out: dict[str, tuple[float, str]] = {}
        for name in names:
            calls = self.calls.get(name, 0)
            own = self.self_s.get(name, 0.0)
            out[f"{name}.calls_per_point"] = (calls / points, "count")
            # a function never called on a workload has no time per call
            out[f"{name}.self_us"] = (own / calls * 1e6 * speed_factor if calls else 0.0, "us")
            out[f"{name}.self_frac"] = (own / self.root_s if self.root_s else 0.0, "fraction")
            out[f"{name}.errors"] = (self.errors.get(name, 0), "count")
        return out


class Tracer:
    """Records spans into ``self.spans``; ``current`` is the open span's index."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list = []
        self.current = -1
        self._clock = clock
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        clock = self._clock

        def traced(*args, **kwargs):
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                # the benchmark's deadline interrupt is a BaseException and
                # is not counted as the function's error
                raised = True
                raise
            finally:
                spans[idx] = (name, start, clock(), parent, raised)
                self.current = parent

        traced.__wrapped__ = fn
        return traced

    def begin_point(self) -> None:
        self.spans.clear()
        self.current = -1

    def install(self, package: str = "nigcdf") -> tuple[list[str], list[str], list[str]]:
        """Wrap every traced function wherever the package binds it.

        Returns the traced function names found, the ``module.name`` sites
        patched, and the traced names missing from their home module.
        """
        modules = [
            (modname, mod)
            for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == package or modname.startswith(package + "."))
        ]
        found, sites, missing = [], [], []
        for home, fname in TRACED:
            name = f"{home}.{fname}"
            target = getattr(sys.modules.get(f"{package}.{home}"), fname, None)
            if target is None:
                missing.append(name)
                continue
            found.append(name)
            wrapper = self.wrap(name, target)
            for modname, mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, target))
                        sites.append(f"{modname}.{attr}")
        return found, sites, missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
