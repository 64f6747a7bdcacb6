"""Outside-in tracer: spans around bosegas's public functions.

``Tracer.install`` replaces every public function in every ``bosegas``
module namespace that binds it, and ``TrapGeometry.log_z1``, with a wrapper
that records a span (name, start, end, parent, count). The library is not
edited; ``uninstall`` puts the originals back. Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time

import numpy as np

PACKAGE = "bosegas"

# functions whose calls and self time are reported as per-layer metrics
LAYER_FUNCTIONS = (
    "trap.log_z1",
    "trap.enumerate_modes",
    "canonical.build_partition_table",
    "canonical.temperature_for_fraction",
    "canonical.mean_occupation",
    "canonical.mean_occupations",
    "canonical.occupation_spectrum",
    "grand.atom_number",
    "grand.solve_fugacity",
    "grand.temperature_for_fraction_gc",
    "coherence.g1_curve",
    "coherence.fwhm",
    "coherence.coherence_vs_width",
    "coherence.find_tph",
    "cli.main",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _partition_terms(args, kwargs, result):
    n = _arg(args, kwargs, 1, "state").n_atoms
    return n * (n + 1) // 2


def _recurrence_points(args, kwargs, result):
    spectrum, grid = _arg(args, kwargs, 0, "spectrum"), _arg(args, kwargs, 2, "grid")
    return (int(spectrum.quanta[:, grid.axis].max()) + 1) * grid.count


# Work counted at a span, from its arguments and result: name -> (count, costly).
# A costly count is timed as a "trace.count" span so that it is not charged
# to the caller's self time.
COUNTS = {
    "trap.log_z1": (lambda a, k, r: int(np.size(_arg(a, k, 1, "beta"))), False),
    "canonical.build_partition_table": (_partition_terms, False),
    "trap.enumerate_modes": (lambda a, k, r: len(r[1]), False),
    "canonical.mean_occupations": (
        lambda a, k, r: int(np.size(_arg(a, k, 1, "energies"))), False),
    "coherence.g1_curve": (_recurrence_points, True),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        # one row per span: [name, start, end, parent index or -1, count or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around one operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        count, costly = COUNTS.get(name, (None, False))

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                if costly:
                    with self.span("trace.count"):
                        self.spans[idx][4] = count(args, kwargs, result)
                else:
                    self.spans[idx][4] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        wrappers = {}
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith(PACKAGE)):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(span_name(value), value)
                self._patch(module, attr, wrappers[value])
        geometry = sys.modules[PACKAGE + ".trap"].TrapGeometry
        self._patch(geometry, "log_z1", self._wrap("trap.log_z1", geometry.log_z1))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# analysis of a list of spans

def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _nearest(spans, idx, name):
    """Index of the closest ancestor of span idx called ``name``, or -1."""
    p = spans[idx][3]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][3]
    return p


def _per_ancestor(spans, child, ancestor):
    """{ancestor span index: [child spans under it, their summed count]}."""
    out = {i: [0, 0] for i, s in enumerate(spans) if s[0] == ancestor}
    for i, s in enumerate(spans):
        if s[0] == child:
            a = _nearest(spans, i, ancestor)
            if a >= 0:
                out[a][0] += 1
                out[a][1] += s[4] or 0
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """The per-layer metrics of one traced pass (values only)."""
    own = self_times(spans)
    calls, self_s, counts = {}, {}, {}
    for s, t in zip(spans, own):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
        counts[s[0]] = counts.get(s[0], 0) + (s[4] or 0)
    m = {}
    for name in LAYER_FUNCTIONS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    def under(child, ancestor):
        return _per_ancestor(spans, child, ancestor).values()

    tff = "canonical.temperature_for_fraction"
    m[f"{tff}.builds_per_call"] = _ratio(
        sum(n for n, _ in under("canonical.build_partition_table", tff)), calls.get(tff, 0))
    m["canonical.build_partition_table.terms"] = counts.get("canonical.build_partition_table", 0)
    m["trap.enumerate_modes.modes"] = counts.get("trap.enumerate_modes", 0)
    spec = "canonical.occupation_spectrum"
    enum = list(under("trap.enumerate_modes", spec))
    m[f"{spec}.modes_per_level"] = _ratio(
        sum(c for _, c in enum), sum(c for _, c in under("canonical.mean_occupations", spec)))
    m[f"{spec}.regrowths"] = sum(max(0, n - 1) for n, _ in enum)
    m["canonical.mean_occupations.energies"] = counts.get("canonical.mean_occupations", 0)
    m["coherence.g1_curve.recurrence_points"] = counts.get("coherence.g1_curve", 0)
    m["coherence.coherence_vs_width.widenings"] = sum(
        max(0, n - 1) for n, _ in under("coherence.g1_profile", "coherence.coherence_vs_width"))
    m["coherence.find_tph.probes_per_call"] = _ratio(
        sum(n for n, _ in under("coherence.coherence_vs_width", "coherence.find_tph")),
        calls.get("coherence.find_tph", 0))
    m["trap.log_z1.betas"] = counts.get("trap.log_z1", 0)
    m["grand.atom_number.terms_per_call"] = _ratio(
        sum(c for _, c in under("trap.log_z1", "grand.atom_number")),
        calls.get("grand.atom_number", 0))
    m["grand.solve_fugacity.probes_per_call"] = _ratio(
        sum(n for n, _ in under("grand.atom_number", "grand.solve_fugacity")),
        calls.get("grand.solve_fugacity", 0))
    return m


def top_self_time(spans, root_prefix="op:", top=3):
    """{operation label: [(function, share of the operation's traced time)]}.

    Groups spans by the benchmark's own operation span above them and ranks
    the library functions by self time within each group.
    """
    own = self_times(spans)
    groups: dict[str, dict[str, float]] = {}
    totals: dict[str, float] = {}
    root = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s[0].startswith(root_prefix):
            root[i] = i
            label = s[0][len(root_prefix):]
            totals[label] = totals.get(label, 0.0) + s[2] - s[1]
        elif s[3] >= 0:
            root[i] = root[s[3]]
        if root[i] >= 0 and root[i] != i:
            g = groups.setdefault(spans[root[i]][0][len(root_prefix):], {})
            g[s[0]] = g.get(s[0], 0.0) + own[i]
    return {
        label: [(name, t / totals[label]) for name, t in
                sorted(g.items(), key=lambda kv: -kv[1])[:top]]
        for label, g in groups.items()
    }
