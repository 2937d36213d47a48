"""Spans around the public functions of the formlift modules.

`Tracer` replaces every public module-level function of the eight formlift
modules with a wrapper that records a span (layer, name, start, end, parent
span, operation id) in memory, and puts the original functions back when it
is removed.  The modules call each other through module attributes
(`lpsolve.is_empty(...)`, `hull.lift_hrep(...)`) and call their own public
functions through module globals, so both kinds of call pass through the
wrappers.  Nothing under `src/` is edited.

`layer_metrics` turns the spans into the per-layer numbers the benchmark
reports.  A layer's self time is a span's duration minus the durations of
its child spans; a layer's calls are its outermost spans, the ones whose
parent belongs to another layer or to no layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

LAYERS = ("formula", "polytope", "lpsolve", "hull", "measures", "instances",
          "verify", "cli")


def _rows_in(args, out):
    q = args[0] if args else ()
    rows = getattr(q, "rows", q)
    return {"rows": len(rows) if hasattr(rows, "__len__") else 0}


def _lift_report(args, out):
    _, rep = out
    return {"ef_rows": rep.ef_rows, "ef_ydim": rep.ef_ydim,
            "emptiness": len(rep.emptiness)}


def _facets(args, out):
    return {"facets": len(out.facets)} if hasattr(out, "facets") else None


def _closure(args, out):
    return {"examined": out.examined, "skipped": out.skipped, "priced": out.priced}


# Extra numbers read from a call's arguments or result, by (layer, name).
_EXTRACT = {
    ("polytope", "lift"): _lift_report,
    ("measures", "verify_closure"): _closure,
}
_EXTRACT_LAYER = {"lpsolve": _rows_in, "hull": _facets}


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "op", "info", "error")

    def __init__(self, layer, name, start, parent, op):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None
        self.error = None

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def public_functions(module):
    """(name, function) for every public function defined in the module."""
    return [(name, obj) for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


class Tracer:
    """Records spans while installed; `op` tags spans with an operation id."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def install(self, modules):
        """Wrap the public functions of `modules`, a dict layer -> module."""
        for layer, module in modules.items():
            for name, fn in public_functions(module):
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, name, fn))

    def remove(self):
        """Put every original function back."""
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extract = _EXTRACT.get((layer, name)) or _EXTRACT_LAYER.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, clock(), stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                span.info = extract(args, out)
            return out

        return traced

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")


def _p50(values):
    return statistics.median(values) if values else 0.0


_LP_ENTRY = {
    "optimize": "optimize", "optimize_rows": "optimize",
    "contains_point": "member",
    "emptiness": "emptiness", "is_empty": "emptiness", "feasible_point": "emptiness",
}


def _durations(spans):
    """Each span's duration and the summed duration of its children."""
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    return dur, child


LIFT, EQH, MEAS = 1, 2, 4


def _ancestry(spans):
    """Flags inherited along parent links: under polytope.lift (LIFT), under
    hull.equals_hull (EQH), under any measures span (MEAS)."""
    under = [0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent < 0:
            continue
        ps = spans[s.parent]
        flags = under[s.parent]
        if ps.layer == "polytope" and ps.name == "lift":
            flags |= LIFT
        elif ps.layer == "hull" and ps.name == "equals_hull":
            flags |= EQH
        elif ps.layer == "measures":
            flags |= MEAS
        under[i] = flags
    return under


def layer_metrics(spans, setup_spans=(), passes=1):
    """Per-layer numbers from the timed-phase spans (and one set-up pass).

    Returns a dict name -> (value, unit).  Counts and busy times are divided
    by `passes`, the number of workload passes the spans cover, so runs of
    different length compare.  `instances` runs only during set-up, so its
    self time is taken from `setup_spans`, once; every other number comes
    from `spans`.  Parent indices refer to positions in the same list.
    """
    dur, child = _durations(spans)
    under = _ancestry(spans)

    def outer(i):
        p = spans[i].parent
        return p < 0 or spans[p].layer != spans[i].layer

    acc = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    lp_entry = {"optimize": 0.0, "member": 0.0, "emptiness": 0.0}
    lp_durs, lp_rows, lp_errors = [], 0, 0
    lift_s = text_s = 0.0
    ef_rows = ef_ydim = emptiness_checks = 0
    lift_hrep_s = equals_hull_s = 0.0
    facets_out = 0
    examined = skipped = priced = 0
    wait = {LIFT: 0.0, EQH: 0.0, MEAS: 0.0}
    checks = commands = 0
    for i, s in enumerate(spans):
        a = acc[s.layer]
        a["self_s"] += dur[i] - child[i]
        if s.layer == "polytope" and s.name == "lift" and s.info:
            ef_rows += s.info["ef_rows"]
            ef_ydim += s.info["ef_ydim"]
            emptiness_checks += s.info["emptiness"]
        if s.layer == "measures" and s.name == "verify_closure" and s.info:
            examined += s.info["examined"]
            skipped += s.info["skipped"]
            priced += s.info["priced"]
        if not outer(i):
            continue
        a["calls"] += 1
        if s.layer == "lpsolve":
            lp_durs.append(dur[i])
            lp_entry[_LP_ENTRY.get(s.name, "optimize")] += dur[i]
            lp_rows += s.info["rows"] if s.info else 0
            lp_errors += s.error == "InternalError"
            for flag in wait:
                if under[i] & flag:
                    wait[flag] += dur[i]
        elif s.layer == "polytope":
            if s.name in ("lift", "iterate_lift"):
                lift_s += dur[i]
            elif s.name in ("to_text", "from_text"):
                text_s += dur[i]
        elif s.layer == "hull":
            if s.name == "lift_hrep":
                lift_hrep_s += dur[i]
            elif s.name == "equals_hull":
                equals_hull_s += dur[i]
            if s.info:
                facets_out += s.info["facets"]
        elif s.layer == "verify" and s.name.startswith("check_"):
            checks += 1
        elif s.layer == "cli" and s.name == "dispatch":
            commands += 1

    sdur, schild = _durations(setup_spans)
    setup_instances = sum(sdur[i] - schild[i] for i, s in enumerate(setup_spans)
                          if s.layer == "instances")

    S, C = "s/pass", "count/pass"

    def per(x):
        return x / passes

    return {
        "lpsolve.calls": (per(acc["lpsolve"]["calls"]), C),
        "lpsolve.self_s": (per(acc["lpsolve"]["self_s"]), S),
        "lpsolve.optimize_s": (per(lp_entry["optimize"]), S),
        "lpsolve.member_s": (per(lp_entry["member"]), S),
        "lpsolve.emptiness_s": (per(lp_entry["emptiness"]), S),
        "lpsolve.call_p50_s": (_p50(lp_durs), "s"),
        "lpsolve.rows_in": (per(lp_rows), C),
        "lpsolve.errors": (per(lp_errors), C),
        "polytope.calls": (per(acc["polytope"]["calls"]), C),
        "polytope.self_s": (per(acc["polytope"]["self_s"]), S),
        "polytope.lift_s": (per(lift_s), S),
        "polytope.ef_rows": (per(ef_rows), C),
        "polytope.ef_ydim": (per(ef_ydim), C),
        "polytope.emptiness_checks": (per(emptiness_checks), C),
        "polytope.emptiness_wait_s": (per(wait[LIFT]), S),
        "polytope.text_s": (per(text_s), S),
        "hull.calls": (per(acc["hull"]["calls"]), C),
        "hull.self_s": (per(acc["hull"]["self_s"]), S),
        "hull.lift_hrep_s": (per(lift_hrep_s), S),
        "hull.equals_hull_s": (per(equals_hull_s), S),
        "hull.lp_wait_s": (per(wait[EQH]), S),
        "hull.facets_out": (per(facets_out), C),
        "measures.calls": (per(acc["measures"]["calls"]), C),
        "measures.self_s": (per(acc["measures"]["self_s"]), S),
        "measures.examined": (per(examined), C),
        "measures.priced": (per(priced), C),
        "measures.lp_wait_s": (per(wait[MEAS]), S),
        "measures.skip_ratio": (skipped / examined if examined else 0.0, "ratio"),
        "verify.checks": (per(checks), C),
        "verify.self_s": (per(acc["verify"]["self_s"]), S),
        "formula.calls": (per(acc["formula"]["calls"]), C),
        "formula.self_s": (per(acc["formula"]["self_s"]), S),
        "instances.self_s": (setup_instances, "s"),
        "cli.commands": (per(commands), C),
        "cli.self_s": (per(acc["cli"]["self_s"]), S),
    }
