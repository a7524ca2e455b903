"""Spans and counts recorded from outside the program.

`Tracer.install` rebinds the public functions each mpcquant module calls,
at the names the calling module looks up (`mpcquant.cli.quantized_levels`,
`mpcquant.spectrum.defect`, `mpcquant.holonomy.check_equivariance`, ...),
to wrappers that record a span: kind, start, end, parent span and document
id.  Calls too fine-grained to keep a span for (`classify` runs once per box
point) are tallied instead: their time and count go to their kind and their
time is charged to the enclosing span as child time.  `uninstall` restores
every original binding.

A span's self time is its duration minus its child spans and tallied calls;
`layer_metrics` sums self times by kind and by module.
"""

from __future__ import annotations

import cmath
import math
import time
from collections import defaultdict

perf_counter = time.perf_counter

# index of each field in a span record
ID, PARENT, DOC, KIND, START, END, TALLIED = range(7)

LAYERS = ("cli", "docio", "models", "equivariance", "spectrum", "report", "svg",
          "holonomy", "mpc")


def layer_of(kind: str) -> str:
    return kind.split(".", 1)[0]


class Tracer:
    def __init__(self, error_type):
        self.error_type = error_type
        self.spans = []
        self.stack = []
        self.doc = None
        self.counts = defaultdict(float)
        self.tally_s = defaultdict(float)
        self.maxima = defaultdict(float)
        self._saved = []

    # ---------------------------------------------------------- recording

    def span(self, kind, fn, before=None, after=None):
        """Wrap fn so each call records a span of `kind`.  `before(tracer,
        args, kwargs, None)` and `after(tracer, args, kwargs, result)` update
        counts outside the timed interval."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs, None)
            rec = [len(tracer.spans), tracer.stack[-1] if tracer.stack else None,
                   tracer.doc, kind, 0.0, 0.0, 0.0]
            tracer.spans.append(rec)
            tracer.stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer.error_type as exc:
                tracer.counts[layer_of(kind) + ".errors"] += 1
                tracer.counts["raised." + type(exc).__name__] += 1
                raise
            finally:
                rec[END] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def tally(self, kind, fn, before=None):
        """Wrap fn so each call adds its time and a count to `kind` and
        charges its time to the enclosing span."""
        tracer = self
        spans, stack, counts, tally_s = self.spans, self.stack, self.counts, self.tally_s
        calls = kind + ".calls"
        under = kind + ".under."

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs, None)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except tracer.error_type:
                counts[layer_of(kind) + ".errors"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                tally_s[kind] += dt
                counts[calls] += 1
                if stack:
                    parent = spans[stack[-1]]
                    parent[TALLIED] += dt
                    counts[under + parent[KIND]] += 1

        return wrapper

    def patch(self, owner, name, wrapper_factory):
        """Rebind owner.name (a module attribute or class attribute)."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        if isinstance(original, classmethod):
            setattr(owner, name, classmethod(wrapper_factory(original.__func__)))
        else:
            setattr(owner, name, wrapper_factory(original))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # ------------------------------------------------------ installation

    def install(self, mq):
        """Wrap the layer boundaries of the mpcquant package `mq` (with its
        submodules imported)."""
        cli, docio, models, spectrum = mq.cli, mq.docio, mq.models, mq.spectrum
        holonomy, equivariance, report, mpc = mq.holonomy, mq.equivariance, mq.report, mq.mpc
        span, tally = self.span, self.tally

        def add(key, amount):
            def hook(tracer, args, kwargs, result):
                tracer.counts[key] += amount(args, kwargs, result)
            return hook

        def text_bytes(key):
            return add(key, lambda a, k, r: len(r.encode("utf-8")))

        self.patch(cli, "load_document", lambda f: span("docio.parse", f))
        self.patch(cli, "build_system", lambda f: span("docio.build", f))
        self.patch(cli, "check_equivariance", lambda f: span("equivariance.check", f))
        self.patch(cli, "solve_shift", lambda f: span("equivariance.shift", f))
        self.patch(cli, "quantized_levels", lambda f: span(
            "spectrum.scan", f, after=add("spectrum.levels", lambda a, k, r: len(r))))
        self.patch(cli, "reduction_report", lambda f: span("spectrum.reduction", f))
        self.patch(cli, "render_diagram", lambda f: span(
            "svg.render", f, after=text_bytes("svg.bytes")))
        self.patch(cli, "render_human", lambda f: span(
            "report.human", f, after=text_bytes("report.bytes")))
        self.patch(report.Report, "to_json", lambda f: span(
            "report.json", f, after=text_bytes("report.bytes")))
        for owner, name in ((docio, "oscillator"), (docio, "projective_space"),
                            (models, "projective_space")):
            self.patch(owner, name, lambda f: span("models.build", f))
        self.patch(spectrum.MomentumPolyhedron, "from_points_and_rays", lambda f: span(
            "spectrum.hull", f,
            before=add("spectrum.hull_generators",
                       lambda a, k, r: len(a[1]) + len(k.get("rays", a[2] if len(a) > 2 else ())))))
        self.patch(spectrum.MomentumPolyhedron, "classify", lambda f: tally(
            "spectrum.classify", f,
            before=add("spectrum.halfspace_evals",
                       lambda a, k, r: len(a[0].halfspaces if a[0].halfspaces is not None
                                           else a[0].ensure_halfspaces()))))
        self.patch(holonomy, "check_equivariance", lambda f: span("equivariance.check", f))
        for owner in (spectrum, equivariance):
            self.patch(owner, "defect", lambda f: tally("equivariance.defect", f))
        self.patch(holonomy, "orbit_spec_for_level", lambda f: span("holonomy.setup", f))
        self.patch(holonomy, "numeric_mpc_holonomy", lambda f: span(
            "holonomy.orbit", f, after=_holonomy_error))
        self.patch(holonomy, "orbit_action_integral", lambda f: span(
            "holonomy.quadrature", f,
            before=add("holonomy.quadrature_steps", lambda a, k, r: a[0].steps)))
        self.patch(holonomy, "halfform_phase", lambda f: tally("mpc.halfform", f))
        self.patch(mpc, "track_sqrt", lambda f: span(
            "mpc.track", f, before=add("mpc.track_steps", lambda a, k, r: a[1])))

    # ---------------------------------------------------------- analysis

    def self_times(self):
        """Self time of every span, from spans that share a document id."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] is not None:
                parent = self.spans[rec[PARENT]]
                if parent[DOC] == rec[DOC]:
                    child[rec[PARENT]] += rec[END] - rec[START]
        return {
            rec[ID]: rec[END] - rec[START] - child[rec[ID]] - rec[TALLIED]
            for rec in self.spans
        }

    def kind_self(self):
        out = defaultdict(float)
        calls = defaultdict(int)
        for rec_id, dt in self.self_times().items():
            kind = self.spans[rec_id][KIND]
            out[kind] += dt
            calls[kind] += 1
        for kind, dt in self.tally_s.items():
            out[kind] += dt
            calls[kind] += int(self.counts[kind + ".calls"])
        return out, calls

    def to_records(self):
        return [
            {"id": r[ID], "parent": r[PARENT], "doc": r[DOC], "kind": r[KIND],
             "start": r[START], "end": r[END], "tallied": r[TALLIED]}
            for r in self.spans
        ]


def _holonomy_error(tracer, args, kwargs, result):
    """|numeric - exp(-2 pi i <x, xi>)| for one orbit, from the level and
    direction on the orbit spec."""
    spec = args[0]
    t = sum(e * a for e, a in zip(spec.level.entries, spec.xi))
    closed = cmath.exp(-2j * math.pi * float(t - math.floor(t)))
    tracer.counts["holonomy.orbits"] += 1
    tracer.maxima["holonomy.max_abs_err"] = max(
        tracer.maxima["holonomy.max_abs_err"], abs(result - closed))


def _ratio(a, b, scale=1.0):
    return a / b * scale if b else 0.0


def layer_metrics(tracer, op_walls, root_walls, untraced_wall):
    """Per-layer metrics from one traced replay.

    op_walls: in-process wall time of each traced operation;
    root_walls: duration of its root span;
    untraced_wall: wall time of the same replay with tracing off."""
    self_s, calls = tracer.kind_self()
    c = tracer.counts
    m = {
        "cli.self_s": self_s["cli.main"],
        "cli.uncaught": c["cli.uncaught"],
        "docio.parse_s": self_s["docio.parse"],
        "docio.build_s": self_s["docio.build"],
        "docio.errors": c["docio.errors"],
        "models.build_s": self_s["models.build"],
        "models.build_calls": calls["models.build"],
        "models.errors": c["models.errors"],
        "equivariance.check_s": self_s["equivariance.check"],
        "equivariance.check_calls": calls["equivariance.check"],
        "equivariance.shift_s": self_s["equivariance.shift"],
        "equivariance.defect_s": self_s["equivariance.defect"],
        "equivariance.defect_calls": calls["equivariance.defect"],
        "equivariance.errors": c["equivariance.errors"],
        "spectrum.hull_s": self_s["spectrum.hull"],
        "spectrum.hull_calls": calls["spectrum.hull"],
        "spectrum.hull_generators": c["spectrum.hull_generators"],
        "spectrum.scan_s": self_s["spectrum.scan"],
        "spectrum.box_points": c["spectrum.classify.under.spectrum.scan"],
        "spectrum.levels": c["spectrum.levels"],
        "spectrum.scan_yield": _ratio(c["spectrum.levels"],
                                      c["spectrum.classify.under.spectrum.scan"]),
        "spectrum.classify_s": self_s["spectrum.classify"],
        "spectrum.classify_calls": calls["spectrum.classify"],
        "spectrum.halfspace_evals": c["spectrum.halfspace_evals"],
        "spectrum.reduction_s": self_s["spectrum.reduction"],
        "spectrum.reduction_calls": calls["spectrum.reduction"],
        "spectrum.errors": c["spectrum.errors"],
        "exact.ns_per_halfspace_eval": _ratio(self_s["spectrum.classify"],
                                              c["spectrum.halfspace_evals"], 1e9),
        "report.json_s": self_s["report.json"],
        "report.human_s": self_s["report.human"],
        "report.bytes": c["report.bytes"],
        "report.errors": c["report.errors"],
        "svg.render_s": self_s["svg.render"],
        "svg.bytes": c["svg.bytes"],
        "svg.errors": c["svg.errors"],
        "holonomy.orbits": c["holonomy.orbits"],
        "holonomy.orbit_s": self_s["holonomy.orbit"] + self_s["holonomy.setup"],
        "holonomy.quadrature_s": self_s["holonomy.quadrature"],
        "holonomy.quadrature_steps": c["holonomy.quadrature_steps"],
        "holonomy.ns_per_step": _ratio(self_s["holonomy.quadrature"],
                                       c["holonomy.quadrature_steps"], 1e9),
        "holonomy.max_abs_err": tracer.maxima["holonomy.max_abs_err"],
        "holonomy.errors": c["holonomy.errors"],
        "mpc.track_s": self_s["mpc.track"],
        "mpc.track_calls": calls["mpc.track"],
        "mpc.track_steps": c["mpc.track_steps"],
        "mpc.ns_per_step": _ratio(self_s["mpc.track"], c["mpc.track_steps"], 1e9),
        "mpc.coarse_rejects": c["raised.StepTooCoarseError"],
        "mpc.max_abs_err": tracer.maxima["mpc.max_abs_err"],
        "mpc.halfform_calls": calls["mpc.halfform"],
        "mpc.errors": c["mpc.errors"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if layer_of(k) == layer)
    traced = sum(op_walls)
    remainder = traced - sum(root_walls)
    m["trace.spans"] = len(tracer.spans)
    m["trace.remainder_s"] = remainder
    m["trace.remainder_frac"] = _ratio(remainder, traced)
    m["trace.overhead_frac"] = _ratio(traced, untraced_wall) - 1.0 if untraced_wall else 0.0
    return m

