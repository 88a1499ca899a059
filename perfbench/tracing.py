"""Spans around riskbound's public functions, for the traced run.

The tracer replaces each listed function, wherever a riskbound module holds
it by name, with a wrapper that records a span (operation, parent, name,
start, end, extras) in memory; ``uninstall`` puts the originals back.  The
per-layer metrics are computed from the spans after the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from time import perf_counter

import numpy as np

#: (module, attribute, span name); BoundResult.quantile_grid is a method
TARGETS = (
    ("distortion", "catalog_lookup", "distortion.catalog_lookup"),
    ("distortion", "make_ghat", "distortion.make_ghat"),
    ("envelope", "convex_envelope_analytic", "envelope.analytic"),
    ("envelope", "convex_envelope_numeric", "envelope.numeric"),
    ("envelope", "slope_l2_norm", "envelope.slope_l2_norm"),
    ("bounds", "worst_case_bound", "bounds.worst_case_bound"),
    ("bounds", "shortfall_bound", "bounds.shortfall_bound"),
    ("bounds", "BoundResult.quantile_grid", "bounds.quantile_grid"),
    ("oracle", "riskmetric_of_quantile", "oracle.riskmetric_of_quantile"),
    ("oracle", "quantile_moments", "oracle.quantile_moments"),
    ("oracle", "feasibility_stress", "oracle.feasibility_stress"),
    ("ingest", "load_returns_csv", "ingest.load_returns_csv"),
    ("ingest", "build_report", "ingest.build_report"),
    ("cli", "run", "cli.run"),
)

ENVELOPES = ("envelope.analytic", "envelope.numeric")

#: per-layer metric -> unit, in the order they are printed
METRICS = {
    "setup.import_s": "s",
    "distortion.catalog_lookup_us": "us",
    "distortion.make_ghat_us": "us",
    "envelope.analytic_ms": "ms",
    "envelope.numeric_ms": "ms",
    "envelope.slope_l2_norm_ms": "ms",
    "envelope.ghat_points": "points/env",
    "envelope.numeric_knots": "knots/env",
    "bounds.worst_case_bound_self_ms": "ms",
    "bounds.quantile_grid_ms": "ms",
    "bounds.numeric_fallbacks": "count/op",
    "bounds.shortfall_bound_ms": "ms",
    "bounds.envelope_builds": "count/op",
    "oracle.riskmetric_of_quantile_ms": "ms",
    "oracle.quantile_moments_ms": "ms",
    "oracle.feasibility_stress_ms": "ms",
    "oracle.stress_refine_ratio": "ratio",
    "ingest.load_returns_csv_ms": "ms",
    "ingest.build_report_ms": "ms",
    "cli.run_self_ms": "ms",
}


def _arg(args, kwargs, name, pos, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.spans = []          # [op, parent, name, start, end, extras]
        self.stack = []
        self.op = -1
        self.ops = set()
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [tracer.op, stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            if name == "envelope.numeric":
                args, counter = tracer._count_ghat(args, kwargs)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            span[5] = tracer._extras(name, args, kwargs, result,
                                     counter if name == "envelope.numeric" else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _count_ghat(args, kwargs):
        """Pass the numeric envelope a copy of the transform that counts points."""
        counter = [0]
        tg = args[0] if args else kwargs["ghat"]
        inner = tg.ghat

        def ghat(u):
            counter[0] += int(np.size(u))
            return inner(u)

        counted = dataclasses.replace(tg, ghat=ghat)
        if args:
            return (counted,) + tuple(args[1:]), counter
        kwargs["ghat"] = counted
        return args, counter

    @staticmethod
    def _extras(name, args, kwargs, result, counter):
        if name == "envelope.numeric":
            return {"ghat_points": counter[0], "knots": int(len(result.knots))}
        if name == "bounds.worst_case_bound":
            engine = _arg(args, kwargs, "engine", 4, "auto")
            return {"fallback": int(engine == "auto" and result.engine == "numeric")}
        if name == "oracle.feasibility_stress":
            return {"trials": int(_arg(args, kwargs, "trials", 4, 1000))}
        return None

    # -- installing ---------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "riskbound" or n.startswith("riskbound.")]
        for modname, attr, name in TARGETS:
            mod = sys.modules[f"riskbound.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def begin_op(self, op_id):
        self.op = op_id
        self.ops.add(op_id)

    # -- results ------------------------------------------------------------

    def metrics(self, import_s: float) -> dict:
        spans = self.spans
        n_ops = max(1, len(self.ops))
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child_time[s[1]] += s[4] - s[3]
        calls, incl, self_t = {}, {}, {}
        for i, s in enumerate(spans):
            d = s[4] - s[3]
            calls[s[2]] = calls.get(s[2], 0) + 1
            incl[s[2]] = incl.get(s[2], 0.0) + d
            self_t[s[2]] = self_t.get(s[2], 0.0) + d - child_time[i]

        def per_call(name, table, scale):
            return table.get(name, 0.0) / calls[name] * scale if calls.get(name) else 0.0

        def under(i, name):
            p = spans[i][1]
            while p >= 0:
                if spans[p][2] == name:
                    return True
                p = spans[p][1]
            return False

        # a call that raised has no extras
        numeric = [s[5] for s in spans if s[2] == "envelope.numeric" and s[5]]
        fallbacks = sum(s[5]["fallback"] for s in spans
                        if s[2] == "bounds.worst_case_bound" and s[5])
        discarded = sum(1 for i, s in enumerate(spans)
                        if s[2] in ENVELOPES and under(i, "bounds.shortfall_bound"))
        trials = sum(s[5]["trials"] for s in spans
                     if s[2] == "oracle.feasibility_stress" and s[5])
        refines = sum(1 for i, s in enumerate(spans)
                      if s[2] == "oracle.riskmetric_of_quantile"
                      and under(i, "oracle.feasibility_stress"))
        out = {
            "setup.import_s": import_s,
            "distortion.catalog_lookup_us": per_call("distortion.catalog_lookup", incl, 1e6),
            "distortion.make_ghat_us": per_call("distortion.make_ghat", incl, 1e6),
            "envelope.analytic_ms": per_call("envelope.analytic", incl, 1e3),
            "envelope.numeric_ms": per_call("envelope.numeric", incl, 1e3),
            "envelope.slope_l2_norm_ms": per_call("envelope.slope_l2_norm", incl, 1e3),
            "envelope.ghat_points":
                sum(e["ghat_points"] for e in numeric) / len(numeric) if numeric else 0.0,
            "envelope.numeric_knots":
                sum(e["knots"] for e in numeric) / len(numeric) if numeric else 0.0,
            "bounds.worst_case_bound_self_ms":
                per_call("bounds.worst_case_bound", self_t, 1e3),
            "bounds.quantile_grid_ms": per_call("bounds.quantile_grid", incl, 1e3),
            "bounds.numeric_fallbacks": fallbacks / n_ops,
            "bounds.shortfall_bound_ms": per_call("bounds.shortfall_bound", incl, 1e3),
            "bounds.envelope_builds": discarded / n_ops,
            "oracle.riskmetric_of_quantile_ms":
                per_call("oracle.riskmetric_of_quantile", incl, 1e3),
            "oracle.quantile_moments_ms": per_call("oracle.quantile_moments", incl, 1e3),
            "oracle.feasibility_stress_ms": per_call("oracle.feasibility_stress", incl, 1e3),
            "oracle.stress_refine_ratio": refines / trials if trials else 0.0,
            "ingest.load_returns_csv_ms": per_call("ingest.load_returns_csv", incl, 1e3),
            "ingest.build_report_ms": per_call("ingest.build_report", incl, 1e3),
            "cli.run_self_ms": per_call("cli.run", self_t, 1e3),
        }
        return {k: {"value": out[k], "unit": METRICS[k]} for k in METRICS}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (op, parent, name, start, end, extras) in enumerate(self.spans):
                rec = {"op": op, "id": i, "parent": parent, "name": name,
                       "start": start, "end": end}
                if extras:
                    rec.update(extras)
                fh.write(json.dumps(rec) + "\n")
