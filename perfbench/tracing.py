"""Spans around ikwave's public functions, and the per-layer metrics.

A span wraps a function at the module attribute where its caller looks it
up, so the program's own code is not touched.  Each span records its name,
start, end, parent and a few counts taken from the result.  Spans stay in
memory until the run ends.  There is one span stack per thread, because
diagnostics_table runs rows on a thread pool; a span opened on a worker
thread takes the innermost open span of the tracing thread as its parent.
"""

import functools
import itertools
import threading
import time
from collections import defaultdict

import ikwave.extreme_wave as ew
import ikwave.output as out
import ikwave.profile_ode as po
import ikwave.solitary_profile as sp


def _attrs_half(half):
    return {"kept": len(half.x) - 1, "floor": half.stop == "floor"}


def _attrs_ivp(sol):
    return {"nfev": int(sol.nfev), "steps": len(sol.t) - 1}


# (module, attribute, span name, counts taken from the result)
WRAPPED = (
    (sp, "solve_solitary", "solitary_profile.solve_solitary", None),
    (sp, "solve_crest", "crest_init.solve_crest", None),
    (sp, "integrate_half", "profile_ode.integrate_half", _attrs_half),
    (po, "solve_ivp", "profile_ode.solve_ivp", _attrs_ivp),
    (sp, "crest_curvature", "profile_ode.crest_curvature", None),
    (sp, "assemble_profile", "solitary_profile.assemble_profile",
     lambda p: {"samples": len(p.x)}),
    (sp, "compare_kdv", "solitary_profile.compare_kdv", None),
    (sp, "diagnostics_table", "solitary_profile.diagnostics_table",
     lambda rows: {"rows": len(rows)}),
    (ew, "solve_critical", "extreme_wave.solve_critical", None),
    (ew, "extreme_profile", "extreme_wave.extreme_profile", None),
    (ew, "integrate_from", "profile_ode.integrate_from", _attrs_half),
    (ew, "assemble_profile", "solitary_profile.assemble_profile",
     lambda p: {"samples": len(p.x)}),
    (out, "profile_csv_text", "output.profile_csv_text",
     lambda text: {"bytes": len(text.encode())}),
    (out, "write_text", "output.write_text", None),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id, parent, name, start, end, attrs):
        self.id, self.parent, self.name = id, parent, name
        self.start, self.end, self.attrs = start, end, attrs

    def as_dict(self):
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Context manager: installs the WRAPPED spans on entry and puts the
    original functions back on exit.  It may be entered many times; spans
    accumulate in ``spans``."""

    def __init__(self):
        self.spans = []
        self.originals = [(module, attr, getattr(module, attr))
                          for module, attr, _, _ in WRAPPED]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._home_stack:
                parent = self._home_stack[-1]
            else:
                parent = None
            span = Span(next(self._ids), parent, name, None, None, None)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs_of is not None:
                span.attrs = attrs_of(result)
            return result
        return traced

    def __enter__(self):
        self._home_stack = self._stack()
        for (module, attr, fn), (_, _, name, attrs_of) in zip(self.originals,
                                                              WRAPPED):
            setattr(module, attr, self._wrap(fn, name, attrs_of))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in self.originals:
            setattr(module, attr, fn)
        return False

    def leftover_wrappers(self):
        """Attributes that do not hold their original function any more."""
        return [f"{m.__name__}.{a}" for m, a, fn in self.originals
                if getattr(m, a) is not fn]


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - _covered(children.get(s.id, ()), s.start, s.end) for s in spans}


LAYER_METRICS = (
    "profile_ode.integrate_half.ms_per_call",
    "profile_ode.integrate_half.steps_per_call",
    "profile_ode.integrate_half.nfev_per_call",
    "profile_ode.integrate_half.nfev_per_step",
    "profile_ode.integrate_half.us_per_step",
    "profile_ode.integrate_half.kept_frac",
    "profile_ode.integrate_half.stop_floor_frac",
    "profile_ode.crest_curvature.us_per_call",
    "solitary_profile.solve_solitary.self_ms",
    "solitary_profile.assemble_profile.ms_per_call",
    "solitary_profile.assemble_profile.samples_per_call",
    "solitary_profile.compare_kdv.ms_per_call",
    "output.profile_csv_text.ms_per_call",
    "output.profile_csv_text.bytes_per_call",
    "output.profile_csv_text.ns_per_byte",
    "output.write_text.ms_per_call",
    "extreme_wave.extreme_profile.ms_per_call",
    "extreme_wave.extreme_profile.steps_per_call",
    "crest_init.solve_crest.us_per_call",
    "solitary_profile.diagnostics_table.us_per_row",
    "solitary_profile.diagnostics_table.pool_overhead_share",
    "extreme_wave.solve_critical.us_per_call",
)


def _ratio(num, den):
    # a layer the workload never reaches reports 0
    return num / den if den else 0.0


def layer_metrics(spans):
    """The LAYER_METRICS values from one traced run's spans."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    ivp_of = {s.parent: s.attrs for s in by_name["profile_ode.solve_ivp"]
              if s.attrs is not None}

    def dur(name):
        return sum(s.end - s.start for s in by_name[name])

    def per_call(name, scale):
        return _ratio(dur(name) * scale, len(by_name[name]))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name] if s.attrs)

    halves = [s for s in by_name["profile_ode.integrate_half"] if s.attrs]
    nhalf = len(halves)
    kept = sum(s.attrs["kept"] for s in halves)
    ivp = [ivp_of.get(s.id, {"nfev": 0, "steps": 0}) for s in halves]
    taken = sum(a["steps"] for a in ivp)
    nfev = sum(a["nfev"] for a in ivp)
    half_s = sum(s.end - s.start for s in halves)

    extremes = {s.id for s in by_name["extreme_wave.extreme_profile"]}
    extreme_steps = [s.attrs["kept"] for s in by_name["profile_ode.integrate_from"]
                     if s.attrs and s.parent in extremes]
    table = by_name["solitary_profile.diagnostics_table"]
    csv = "output.profile_csv_text"
    return {
        "profile_ode.integrate_half.ms_per_call": _ratio(half_s * 1e3, nhalf),
        "profile_ode.integrate_half.steps_per_call": _ratio(kept, nhalf),
        "profile_ode.integrate_half.nfev_per_call": _ratio(nfev, nhalf),
        "profile_ode.integrate_half.nfev_per_step": _ratio(nfev, taken),
        "profile_ode.integrate_half.us_per_step": _ratio(half_s * 1e6, taken),
        "profile_ode.integrate_half.kept_frac": _ratio(kept, taken),
        "profile_ode.integrate_half.stop_floor_frac": _ratio(
            sum(s.attrs["floor"] for s in halves), nhalf),
        "profile_ode.crest_curvature.us_per_call": per_call(
            "profile_ode.crest_curvature", 1e6),
        "solitary_profile.solve_solitary.self_ms": _ratio(
            sum(selfs[s.id] for s in by_name["solitary_profile.solve_solitary"])
            * 1e3, len(by_name["solitary_profile.solve_solitary"])),
        "solitary_profile.assemble_profile.ms_per_call": per_call(
            "solitary_profile.assemble_profile", 1e3),
        "solitary_profile.assemble_profile.samples_per_call": _ratio(
            attr_sum("solitary_profile.assemble_profile", "samples"),
            len(by_name["solitary_profile.assemble_profile"])),
        "solitary_profile.compare_kdv.ms_per_call": per_call(
            "solitary_profile.compare_kdv", 1e3),
        "output.profile_csv_text.ms_per_call": per_call(csv, 1e3),
        "output.profile_csv_text.bytes_per_call": _ratio(
            attr_sum(csv, "bytes"), len(by_name[csv])),
        "output.profile_csv_text.ns_per_byte": _ratio(
            dur(csv) * 1e9, attr_sum(csv, "bytes")),
        "output.write_text.ms_per_call": per_call("output.write_text", 1e3),
        "extreme_wave.extreme_profile.ms_per_call": per_call(
            "extreme_wave.extreme_profile", 1e3),
        "extreme_wave.extreme_profile.steps_per_call": _ratio(
            sum(extreme_steps), len(extreme_steps)),
        "crest_init.solve_crest.us_per_call": per_call(
            "crest_init.solve_crest", 1e6),
        "solitary_profile.diagnostics_table.us_per_row": _ratio(
            dur("solitary_profile.diagnostics_table") * 1e6,
            attr_sum("solitary_profile.diagnostics_table", "rows")),
        "solitary_profile.diagnostics_table.pool_overhead_share": _ratio(
            sum(selfs[s.id] for s in table),
            dur("solitary_profile.diagnostics_table")),
        "extreme_wave.solve_critical.us_per_call": per_call(
            "extreme_wave.solve_critical", 1e6),
    }
