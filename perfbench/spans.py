"""Spans recorded from outside the program, around calls into each layer.

A traced run replaces layer functions with timing wrappers, each patched
where its caller looks the name up, so the program itself is unchanged.
Every call records a span (name, start, end, parent, tag) in memory; a
layer's self time is its spans' durations minus the time their child spans
cover.  The untraced run installs nothing.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from mathieu_kit import cli, closed_form, exponent_class, floquet, flux, oracle, reductions
from mathieu_kit.oracle import LinearODE
from workloads import SERIES_RADIUS, Y_SERIES_WEDGE


def _bessel_args(args, kwargs):
    n = args[0] if args else kwargs["n"]
    z = complex(args[1] if len(args) > 1 else kwargs["z"])
    return abs(int(n)), z


def _j_regime(args, kwargs, result):
    n, z = _bessel_args(args, kwargs)
    return "series" if abs(z) <= SERIES_RADIUS else "recurrence"


def _y_regime(args, kwargs, result):
    # the same test bessel_y applies before it sums its series
    n, z = _bessel_args(args, kwargs)
    r = abs(z)
    direct = r <= SERIES_RADIUS or r - abs(z.imag) <= Y_SERIES_WEDGE or n >= r
    return "series" if direct else "recurrence"


def _integrate_stats(args, kwargs, result):
    return (result.meta["steps"], result.meta["rejected"], result.meta["rhs_evaluations"])


def _truncation(args, kwargs, result):
    return result.truncation


# (module, attribute looked up by the caller, span name, tag function)
PATCH_POINTS = (
    (closed_form, "bessel_j", "bessel.j", _j_regime),
    (closed_form, "bessel_y", "bessel.y", _y_regime),
    (closed_form, "evaluate", "closed_form.evaluate", None),
    (closed_form, "adjudicate", "closed_form.adjudicate", None),
    (closed_form, "residual", "oracle.residual", None),
    (oracle, "residual", "oracle.residual", None),
    (oracle, "integrate", "oracle.integrate", _integrate_stats),
    (floquet, "solve", "floquet.solve", _truncation),
    (floquet, "monodromy_exponent", "oracle.monodromy", None),
    (floquet, "hill_determinant", "floquet.hill_determinant", None),
    (floquet, "coefficients", "floquet.coefficients", None),
    (floquet, "classify_stability", "floquet.classify_stability", None),
    # O(1) exponent bookkeeping, counted in floquet's self time
    (exponent_class, "normalize_exponent", "floquet.normalize_exponent", None),
    (flux, "integrate", "oracle.integrate", _integrate_stats),
    (flux, "simulate_full", "flux.simulate_full", None),
    (flux, "field_from_motion", "flux.field_from_motion", None),
    (flux, "induced_field_model", "flux.induced_field_model", None),
    (flux, "identify_frequencies", "flux.identify_frequencies", None),
    (flux, "modulation_analysis", "flux.modulation_analysis", None),
    (reductions, "reduce", "reductions.reduce", None),
    (reductions, "pullback", "reductions.pullback", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """In-memory span log; records only while ``recording`` is set."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.monodromy_rhs = 0
        self.recording = False
        self._stack: list[int] = []

    def wrap(self, name, fn, tag=None):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if tag is not None:
                rec[4] = tag(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_ode_factory(self, make_ode):
        # monodromy returns no step statistics, so its rhs evaluations are
        # counted as calls of the coefficient callable inside monodromy spans
        def general_mathieu_ode(gp):
            ode = make_ode(gp)
            q = ode.q

            def counted_q(t):
                if self.recording and self._stack and \
                        self.spans[self._stack[-1]][0] == "oracle.monodromy":
                    self.monodromy_rhs += 1
                return q(t)

            return LinearODE(p=ode.p, q=counted_q, f=ode.f)

        general_mathieu_ode.__wrapped__ = make_ode
        return general_mathieu_ode

    @contextmanager
    def installed(self):
        """Patch every wrapper in, and restore the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCH_POINTS]
        saved.append((floquet, "general_mathieu_ode", floquet.general_mathieu_ode))
        try:
            for mod, attr, name, tag in PATCH_POINTS:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), tag))
            floquet.general_mathieu_ode = self._counting_ode_factory(
                floquet.general_mathieu_ode)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start and end in seconds, parent index, tag."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def patched_attributes():
    """Current values of every patch point, for checking what is installed."""
    points = [(mod, attr) for mod, attr, _, _ in PATCH_POINTS]
    points.append((floquet, "general_mathieu_ode"))
    return {f"{mod.__name__}.{attr}": getattr(mod, attr) for mod, attr in points}


def _mean(total: float, count: int, scale: float) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    """Per-layer figures from the span log.

    ``*_calls`` and oracle step counts are totals over the traced items; ``*_s``
    are total seconds; ``*_ms`` and ``*_us`` are means per call.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    self_layer: defaultdict = defaultdict(float)
    regime_n: Counter = Counter()
    regime_s: defaultdict = defaultdict(float)
    seed_s = 0.0
    steps = rejected = integrate_rhs = 0
    truncations = []
    self_evaluate = 0.0
    for i, (name, start, end, parent, tag) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        calls[name] += 1
        incl[name] += dur
        self_layer[name.split(".")[0]] += own
        if name.startswith("bessel."):
            regime_n[name, tag] += 1
            regime_s[name, tag] += dur
        elif name == "closed_form.evaluate":
            self_evaluate += own
        elif name == "oracle.integrate":
            steps += tag[0]
            rejected += tag[1]
            integrate_rhs += tag[2]
        elif name == "floquet.solve":
            truncations.append(tag)
        elif name == "oracle.monodromy" and parent >= 0 and spans[parent][0] == "floquet.solve":
            seed_s += dur
    rhs = integrate_rhs + tracer.monodromy_rhs
    integrator_s = incl["oracle.monodromy"] + incl["oracle.integrate"]

    def regime_us(kind, regime):
        return _mean(regime_s[kind, regime], regime_n[kind, regime], 1e6)

    return {
        "bessel.j_calls": calls["bessel.j"],
        "bessel.y_calls": calls["bessel.y"],
        "bessel.j_us.series": regime_us("bessel.j", "series"),
        "bessel.j_us.recurrence": regime_us("bessel.j", "recurrence"),
        "bessel.y_us.series": regime_us("bessel.y", "series"),
        "bessel.y_us.recurrence": regime_us("bessel.y", "recurrence"),
        "bessel.self_s": self_layer["bessel"],
        "closed_form.evaluate_calls": calls["closed_form.evaluate"],
        "closed_form.evaluate_self_us": _mean(self_evaluate, calls["closed_form.evaluate"], 1e6),
        "closed_form.adjudicate_ms": _mean(incl["closed_form.adjudicate"],
                                           calls["closed_form.adjudicate"], 1e3),
        "closed_form.self_s": self_layer["closed_form"],
        "floquet.solve_calls": calls["floquet.solve"],
        "floquet.seed_s": seed_s,
        "floquet.hill_det_calls": calls["floquet.hill_determinant"],
        "floquet.hill_det_us": _mean(incl["floquet.hill_determinant"],
                                     calls["floquet.hill_determinant"], 1e6),
        "floquet.coefficients_ms": _mean(incl["floquet.coefficients"],
                                         calls["floquet.coefficients"], 1e3),
        "floquet.truncation_mean": _mean(sum(truncations), len(truncations), 1.0),
        "floquet.self_s": self_layer["floquet"],
        "oracle.monodromy_calls": calls["oracle.monodromy"],
        "oracle.integrate_calls": calls["oracle.integrate"],
        "oracle.residual_calls": calls["oracle.residual"],
        "oracle.steps": steps,
        "oracle.rejected": rejected,
        "oracle.rhs_evals": rhs,
        "oracle.us_per_rhs_eval": _mean(integrator_s, rhs, 1e6),
        "oracle.monodromy_s": incl["oracle.monodromy"],
        "oracle.integrate_s": incl["oracle.integrate"],
        "oracle.residual_s": incl["oracle.residual"],
        "oracle.self_s": self_layer["oracle"],
        "reductions.reduce_calls": calls["reductions.reduce"],
        "reductions.pullback_calls": calls["reductions.pullback"],
        "reductions.pullback_ms": _mean(incl["reductions.pullback"],
                                        calls["reductions.pullback"], 1e3),
        "reductions.self_s": self_layer["reductions"],
        "flux.simulate_s": incl["flux.simulate_full"],
        "flux.field_from_motion_ms": _mean(incl["flux.field_from_motion"],
                                           calls["flux.field_from_motion"], 1e3),
        "flux.identify_frequencies_ms": _mean(incl["flux.identify_frequencies"],
                                              calls["flux.identify_frequencies"], 1e3),
        "flux.modulation_analysis_ms": _mean(incl["flux.modulation_analysis"],
                                             calls["flux.modulation_analysis"], 1e3),
        "flux.self_s": self_layer["flux"],
        "cli.jobs": calls["cli.main"],
        "cli.self_s": self_layer["cli"],
        "cli.output_bytes": output_bytes,
    }


def layer_calls(tracer: Tracer) -> Counter:
    """Spans recorded per layer, to confirm the layers a workload leaves idle."""
    return Counter(rec[0].split(".")[0] for rec in tracer.spans)
