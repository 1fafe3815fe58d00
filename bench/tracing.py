"""Per-layer tracing of layerfmm from outside the package.

`Tracer.install` rebinds every public layerfmm function where it is looked
up (each module attribute that refers to it, so `radial_table` is wrapped
both in `sommerfeld` and in `expansions`) and the public methods of the
package's classes.  Each wrapped call is a span; spans nest on a stack, and
a span's self time is its duration minus the time of the spans it caused.
Counts are taken from the arguments and return values at the same
boundaries, so they repeat exactly when the inputs do.  Spans are folded
into per-function and per-layer totals as they close; `functions` gives
the per-function table that run.py writes out when a traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("medium", "densities", "harmonics", "sommerfeld", "expansions", "lab")
#: expansions functions on the reaction path; the rest are free-space
REACTION_PREFIXES = ("reaction_", "eval_reaction", "m2l_reaction", "polarization_")
RHO_ZETA_BANDS = (("le1", 0.0, 1.0), ("1to10", 1.0, 10.0), ("gt10", 10.0, np.inf))

#: (name, unit, better) of every metric `Tracer.metrics` reports
METRICS = (
    ("densities.calls", "count", "lower"),
    ("densities.nodes", "count", "lower"),
    ("densities.busy_s", "s", "lower"),
    ("densities.us_per_node", "us", "lower"),
    ("sommerfeld.tables", "count", "lower"),
    ("sommerfeld.entries", "count", "lower"),
    ("sommerfeld.panels", "count", "lower"),
    ("sommerfeld.gl_calls", "count", "lower"),
    ("sommerfeld.gl_per_panel", "ratio", "lower"),
    ("sommerfeld.tol_use_p50", "ratio", "higher"),
    ("sommerfeld.self_s", "s", "lower"),
    ("sommerfeld.oracle_pairs", "count", "lower"),
    ("sommerfeld.oracle_s", "s", "lower"),
    ("sommerfeld.tables_rz_le1", "count", "lower"),
    ("sommerfeld.tables_rz_1to10", "count", "lower"),
    ("sommerfeld.tables_rz_gt10", "count", "lower"),
    ("expansions.basis_tables", "count", "lower"),
    ("expansions.m2l_matrices", "count", "lower"),
    ("expansions.le_charges", "count", "lower"),
    ("expansions.reaction_self_s", "s", "lower"),
    ("expansions.p2m_charges", "count", "lower"),
    ("expansions.translations", "count", "lower"),
    ("expansions.l2p_points", "count", "lower"),
    ("expansions.free_self_s", "s", "lower"),
    ("harmonics.sph_tables", "count", "lower"),
    ("harmonics.busy_s", "s", "lower"),
    ("lab.experiments", "count", "lower"),
    ("lab.self_s", "s", "lower"),
    ("medium.busy_s", "s", "lower"),
    ("traced.wall_s", "s", "lower"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_density(tracer, args, kwargs, out):
    tracer.counts["densities.nodes"] += int(np.size(args[1]))


def _count_reaction_densities(tracer, args, kwargs, out):
    tracer.counts["densities.nodes"] += int(np.size(_arg(args, kwargs, 3, "k_rho")))


def _count_radial_table(tracer, args, kwargs, out):
    _, err, stats = out
    rho = _arg(args, kwargs, 1, "rho")
    zeta = _arg(args, kwargs, 2, "zeta")
    tol = np.asarray(_arg(args, kwargs, 5, "tol_abs"), dtype=float)
    finite = np.isfinite(tol)
    c = tracer.counts
    c["sommerfeld.entries"] += int(finite.sum())
    c["sommerfeld.panels"] += stats["panels"]
    c["sommerfeld.gl_calls"] += stats["gl_calls"]
    if finite.any():
        tracer.tol_use.append(float(np.max(err[finite] / tol[finite])))
    rz = rho / zeta
    for band, lo, hi in RHO_ZETA_BANDS:
        if lo < rz <= hi or (lo == 0.0 and rz == 0.0):
            c[f"sommerfeld.tables_rz_{band}"] += 1


def _count_charges(key):
    def count(tracer, args, kwargs, out):
        tracer.counts[key] += len(args[0])

    return count


COUNTERS = {
    "densities.ReactionDensity.__call__": _count_density,
    "densities.reaction_densities": _count_reaction_densities,
    "sommerfeld.radial_table": _count_radial_table,
    "expansions.reaction_le_from_charges": _count_charges("expansions.le_charges"),
    "expansions.me_from_charges": _count_charges("expansions.p2m_charges"),
}
#: per-call counters: metric name -> qualified function names it counts
CALL_COUNTS = {
    "densities.calls": ("densities.ReactionDensity.__call__", "densities.reaction_densities"),
    "sommerfeld.tables": ("sommerfeld.radial_table",),
    "sommerfeld.oracle_pairs": ("sommerfeld.eval_reaction_green",),
    "expansions.basis_tables": ("expansions.reaction_basis_table",),
    "expansions.m2l_matrices": ("expansions.reaction_m2l_matrix",),
    "expansions.translations": ("expansions.m2m", "expansions.m2l_free", "expansions.l2l"),
    "expansions.l2p_points": ("expansions.eval_expansion",),
    "harmonics.sph_tables": ("harmonics.sph_harm_table",),
    "lab.experiments": ("lab.run_experiment",),
}


def _group(layer, name):
    if layer == "expansions":
        short = name.rsplit(".", 1)[-1]
        kind = "reaction" if short.startswith(REACTION_PREFIXES) else "free"
        return f"expansions.{kind}"
    return layer


class Tracer:
    def __init__(self):
        self._patches = []
        self._wrappers = {}
        self.reset()

    def reset(self):
        self.stack = []
        self.depth = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.self_by_function = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.tol_use = []

    def _wrap(self, fn, qualname):
        if fn in self._wrappers:
            return self._wrappers[fn]
        layer = qualname.split(".", 1)[0]
        group = _group(layer, qualname)
        count = COUNTERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            tracer.stack.append(children)
            tracer.depth[layer] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                tracer.stack.pop()
                tracer.depth[layer] -= 1
                if tracer.stack:
                    tracer.stack[-1][0] += span
                tracer.self_time[group] += span - children[0]
                tracer.self_by_function[qualname] += span - children[0]
                tracer.inclusive[qualname] += span
                if tracer.depth[layer] == 0:
                    tracer.busy[layer] += span
            tracer.calls[qualname] += 1
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        self._wrappers[fn] = traced
        return traced

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self):
        """Wrap the package's public functions and methods in place."""
        for layer in LAYERS:
            module = importlib.import_module(f"layerfmm.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith("layerfmm."):
                    continue
                home_layer = home.split(".", 1)[1]
                if home_layer not in LAYERS:
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == module.__name__:
                        self._install_class(home_layer, obj)
                elif callable(obj):
                    qual = f"{home_layer}.{obj.__name__}"
                    self._patch(module, attr, self._wrap(obj, qual))

    def _install_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr == "__call__"):
                self._patch(cls, attr, self._wrap(obj, f"{layer}.{cls.__name__}.{attr}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def functions(self):
        """Calls, self and inclusive seconds per wrapped function, by self
        time."""
        rows = [
            {
                "function": name,
                "calls": self.calls[name],
                "self_s": self.self_by_function[name],
                "inclusive_s": self.inclusive[name],
            }
            for name in self.calls
        ]
        return sorted(rows, key=lambda row: -row["self_s"])

    def snapshot(self):
        """Counts and times accumulated since the last reset."""
        counts = {
            key: sum(self.calls[q] for q in quals) for key, quals in CALL_COUNTS.items()
        }
        counts.update(self.counts)
        times = {
            "densities.busy_s": self.busy["densities"],
            "sommerfeld.self_s": self.self_time["sommerfeld"],
            "sommerfeld.oracle_s": self.inclusive["sommerfeld.eval_reaction_green"],
            "expansions.reaction_self_s": self.self_time["expansions.reaction"],
            "expansions.free_self_s": self.self_time["expansions.free"],
            "harmonics.busy_s": self.busy["harmonics"],
            "lab.self_s": self.self_time["lab"],
            "medium.busy_s": self.busy["medium"],
        }
        return counts, list(self.tol_use), times


def metrics(rounds, wall_s):
    """Per-layer metrics from the snapshots of identical rounds: counts
    from one round (they repeat exactly), times as medians over rounds;
    wall_s is the traced run's `wall_s`."""
    counts, tol_use, _ = rounds[0]
    out = {name: 0.0 for name, _, _ in METRICS}
    out.update({k: float(v) for k, v in counts.items() if k in out})
    for key in rounds[0][2]:
        out[key] = statistics.median(r[2][key] for r in rounds)
    out["traced.wall_s"] = wall_s
    nodes = counts.get("densities.nodes", 0)
    panels = counts.get("sommerfeld.panels", 0)
    out["densities.us_per_node"] = 1e6 * out["densities.busy_s"] / nodes if nodes else 0.0
    out["sommerfeld.gl_per_panel"] = (
        counts.get("sommerfeld.gl_calls", 0) / panels if panels else 0.0
    )
    out["sommerfeld.tol_use_p50"] = statistics.median(tol_use) if tol_use else 0.0
    units = {name: unit for name, unit, _ in METRICS}
    return {name: {"value": value, "unit": units[name]} for name, value in out.items()}
