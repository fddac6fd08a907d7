"""Per-layer tracing of one magsys-lab command, from outside the package.

The traced run rebinds public module-level functions of ``magsys_lab`` to
wrappers that record spans (name, layer, start, end, parent) and work counts,
and restores every binding afterwards.  A layer is one module of the package.
Callers import some names directly (``from .dynamics import flow``), so each
function is rebound in every ``magsys_lab`` module that holds it.

RHS evaluations are too many to keep as spans: the counting closure adds its
time to the enclosing span (a ``solve_ivp`` call) as child time and to the
``dynamics`` layer as self time.

A name that no longer exists, or a counter that no longer matches the work
the program reports, raises ``TraceError``: the benchmark fails rather than
reporting zeros for a layer it stopped seeing.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from collections import Counter

PACKAGE = "magsys_lab"

# (module the wrapper is looked up in, attribute, layer, span name)
TARGETS = (
    ("cli", "parse_config", "cli", "cli.parse_config"),
    ("syslab", "build_system", "syslab", "syslab.build_system"),
    ("syslab", "run_experiment_full", "syslab", "syslab.run_experiment"),
    ("syslab", "conformal_perturb", "geometry", "geometry.conformal_perturb"),
    ("syslab", "riemannian_volume", "geometry", "geometry.riemannian_volume"),
    ("volume", "riemannian_volume", "geometry", "geometry.riemannian_volume"),
    ("orbits", "enumerate_orbits", "orbits", "orbits.enumerate_orbits"),
    ("orbits", "find_closed_orbit", "orbits", "orbits.find_closed_orbit"),
    ("orbits", "return_map", "orbits", "orbits.return_map"),
    ("orbits", "deduplicate", "orbits", "orbits.deduplicate"),
    ("orbits", "flow", "dynamics", "dynamics.flow"),
    ("dynamics", "flow", "dynamics", "dynamics.flow"),
    ("orbits", "solve_ivp", "ivp", "scipy.solve_ivp"),
    ("dynamics", "solve_ivp", "ivp", "scipy.solve_ivp"),
    ("functionals", "magnetic_length", "functionals", "functionals.magnetic_length"),
    ("functionals", "flux_through_cap", "functionals", "functionals.flux_through_cap"),
    ("volume", "vol_quadrature_oracle", "volume", "volume.oracle"),
    ("volume", "vol_closed_form", "volume", "volume.closed_form"),
    ("reporting", "write_json", "reporting", "reporting.write_json"),
    ("reporting", "write_csv", "reporting", "reporting.write_csv"),
    ("reporting", "orbit_samples_csv", "reporting", "reporting.orbit_samples_csv"),
)
# the RHS factory, rebound to return a counting closure
RHS_TARGETS = (("orbits", "rhs"), ("dynamics", "rhs"))
# the layer of the command itself: time not covered by any wrapped call
ROOT_NAME, ROOT_LAYER = "cli.main", "cli"
LAYERS = ("cli", "syslab", "geometry", "orbits", "dynamics", "ivp",
          "functionals", "volume", "reporting")


class TraceError(RuntimeError):
    """The traced run no longer sees the work it is meant to measure."""


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s")

    def __init__(self, name, layer, parent):
        self.name, self.layer = name, layer
        self.parent = parent            # index of the parent span, -1 for none
        self.start = self.end = 0.0
        self.child_s = 0.0


class Tracer:
    """Spans and counts of one traced command.  Use as a context manager:
    bindings are installed on entry and restored on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []                # indices of the open spans
        self.counts = Counter()
        self.rhs_s = 0.0
        self.area_quad_s = 0.0          # normalising conformal_perturb calls
        self.oracle_results = []        # (estimate, std_error) per oracle call
        self._undo = []

    # -- rebinding ------------------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _lookup(self, module, attr):
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        if mod is None or not hasattr(mod, attr):
            raise TraceError(f"{PACKAGE}.{module}.{attr} no longer exists; "
                             "the traced run cannot intercept it")
        return getattr(mod, attr)

    def _rebind_everywhere(self, original, replacement):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _install(self):
        after = {
            "orbits.find_closed_orbit": self._after_seed,
            "orbits.deduplicate": self._after_dedup,
            "scipy.solve_ivp": self._after_ivp,
            "geometry.conformal_perturb": self._after_conformal,
            "volume.oracle": self._after_oracle,
            "reporting.write_json": self._after_write,
            "reporting.write_csv": self._after_write,
            "reporting.orbit_samples_csv": self._after_write,
        }
        wrappers = set()   # a name imported into several modules is wrapped once
        for module, attr, layer, name in TARGETS:
            original = self._lookup(module, attr)
            if id(original) not in wrappers:
                wrapper = self._wrap(original, name, layer, after.get(name))
                wrappers.add(id(wrapper))
                self._rebind_everywhere(original, wrapper)
        for module, attr in RHS_TARGETS:
            original = self._lookup(module, attr)
            if id(original) not in wrappers:
                wrapper = self._wrap_rhs(original)
                wrappers.add(id(wrapper))
                self._rebind_everywhere(original, wrapper)
        for module, attr, *_ in TARGETS + RHS_TARGETS:
            if id(self._lookup(module, attr)) not in wrappers:
                raise TraceError(f"{PACKAGE}.{module}.{attr} was not rebound")

    def restore(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, layer, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        signature = inspect.signature(fn) if after is not None else None

        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            counts[name] += 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]].child_s += span.end - span.start
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(span, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_rhs(self, factory):
        spans, stack, counts, tracer = self.spans, self._stack, self.counts, self
        clock = time.perf_counter

        def traced_rhs(*args, **kwargs):
            f = factory(*args, **kwargs)

            def counted(t, y):
                t0 = clock()
                out = f(t, y)
                dt = clock() - t0
                counts["dynamics.rhs"] += 1
                tracer.rhs_s += dt
                if stack:
                    spans[stack[-1]].child_s += dt
                return out

            return counted

        traced_rhs.__wrapped__ = factory
        return traced_rhs

    def root(self, fn, *args):
        """Run fn(*args) as the root span (the command itself)."""
        return self._wrap(fn, ROOT_NAME, ROOT_LAYER)(*args)

    # -- per-call hooks (run after the span closes) ----------------------------

    def _after_seed(self, span, arguments, orbit):
        self.counts["orbits.newton_iters"] += int(orbit.newton_iterations)

    def _after_dedup(self, span, arguments, unique):
        self.counts["orbits.dedup_in"] += len(arguments["orbits"])
        self.counts["orbits.dedup_out"] += len(unique)

    def _after_ivp(self, span, arguments, sol):
        self.counts["ivp.nfev"] += int(sol.nfev)

    def _after_conformal(self, span, arguments, system):
        # a normalised perturbation is the one that ran an area quadrature
        if system.volume_normalized:
            self.counts["geometry.area_quad"] += 1
            self.area_quad_s += span.end - span.start

    def _after_oracle(self, span, arguments, result):
        self.counts["volume.samples"] += int(arguments["samples"])
        self.oracle_results.append(result)

    def _after_write(self, span, arguments, result):
        self.counts["reporting.bytes_written"] += os.path.getsize(arguments["path"])

    # -- summaries ------------------------------------------------------------

    def _spans(self, name):
        return [s for s in self.spans if s.name == name]

    def _total_s(self, name):
        return sum((s.end - s.start for s in self._spans(name)), 0.0)

    def self_times(self):
        """Seconds each layer spent in its own code, children excluded."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            out[s.layer] += (s.end - s.start) - s.child_s
        out["dynamics"] += self.rhs_s
        return out

    def metrics(self):
        """Per-layer metrics of the traced command (keys without units)."""
        c = self.counts
        wall = self._total_s(ROOT_NAME)
        rhs_evals = c["dynamics.rhs"]
        attempted = c["orbits.find_closed_orbit"]
        failed = sum(v for k, v in c.items()
                     if k.startswith("orbits.find_closed_orbit.raised."))
        converged = attempted - failed
        seed_times = [s.end - s.start for s in self._spans("orbits.find_closed_orbit")]
        area_quad_calls = c["geometry.riemannian_volume"] + c["geometry.area_quad"]
        area_quad_s = self._total_s("geometry.riemannian_volume") + self.area_quad_s
        oracle_s = self._total_s("volume.oracle")
        dedup_in, dedup_out = c["orbits.dedup_in"], c["orbits.dedup_out"]
        ml_calls = c["functionals.magnetic_length"]
        m = {
            "trace.wall_s": wall,
            "dynamics.rhs_evals": rhs_evals,
            "dynamics.rhs_s": self.rhs_s,
            "dynamics.rhs_us_per_eval": 1e6 * self.rhs_s / rhs_evals if rhs_evals else 0.0,
            "dynamics.ivp_calls": c["scipy.solve_ivp"],
            "dynamics.flow_calls": c["dynamics.flow"],
            "dynamics.flow_s": self._total_s("dynamics.flow"),
            "orbits.seeds_attempted": attempted,
            "orbits.seeds_converged": converged,
            "orbits.seeds_failed": failed,
            "orbits.converge_ratio": converged / attempted if attempted else 0.0,
            "orbits.seed_solve_s": statistics.median(seed_times) if seed_times else 0.0,
            "orbits.return_maps": c["orbits.return_map"],
            "orbits.return_map_s": self._total_s("orbits.return_map"),
            "orbits.newton_iters": c["orbits.newton_iters"],
            "orbits.dedup_in": dedup_in,
            "orbits.dedup_out": dedup_out,
            "orbits.distinct_ratio": dedup_out / dedup_in if dedup_in else 0.0,
            "orbits.dedup_s": self._total_s("orbits.deduplicate"),
            "functionals.magnetic_length_calls": ml_calls,
            "functionals.magnetic_length_s": self._total_s("functionals.magnetic_length"),
            "functionals.flux_s": self._total_s("functionals.flux_through_cap"),
            "functionals.ml_calls_per_orbit": ml_calls / dedup_out if dedup_out else 0.0,
            "geometry.area_quad_calls": area_quad_calls,
            "geometry.area_quad_s": area_quad_s,
            "syslab.build_system_s": self._total_s("syslab.build_system"),
            "syslab.run_experiment_s": self._total_s("syslab.run_experiment"),
            "volume.oracle_s": oracle_s,
            "volume.msamples_per_s": c["volume.samples"] / oracle_s / 1e6 if oracle_s else 0.0,
            "volume.closed_form_s": self._total_s("volume.closed_form"),
            "reporting.emit_s": sum(self._total_s(n) for n in (
                "reporting.write_json", "reporting.write_csv",
                "reporting.orbit_samples_csv")),
            "reporting.bytes_written": c["reporting.bytes_written"],
            "cli.parse_s": self._total_s("cli.parse_config"),
            "orbits.dedup_share": self._total_s("orbits.deduplicate") / wall,
            "orbits.return_map_share": self._total_s("orbits.return_map") / wall,
            "volume.oracle_share": oracle_s / wall,
        }
        for layer, secs in self.self_times().items():
            m[f"{layer}.self_s"] = secs
        return m

    def check(self, seeds_attempted, census):
        """Cross-check the counters against each other and the report."""
        c = self.counts
        problems = []
        if c["dynamics.rhs"] != c["ivp.nfev"]:
            problems.append(f"RHS evaluations counted by the closures ({c['dynamics.rhs']}) "
                            f"differ from the summed solve_ivp nfev ({c['ivp.nfev']})")
        if c["orbits.find_closed_orbit"] != seeds_attempted:
            problems.append(f"find_closed_orbit ran {c['orbits.find_closed_orbit']} times "
                            f"for {seeds_attempted} seeds attempted")
        if census and c["orbits.return_map"] == 0:
            problems.append("the census recorded no return maps")
        if census and c["orbits.deduplicate"] == 0:
            problems.append("the census recorded no deduplication")
        total_self = sum(self.self_times().values())
        wall = self._total_s(ROOT_NAME)
        if abs(total_self - wall) > 1e-6 * max(wall, 1.0):
            problems.append(f"layer self times sum to {total_self} s, not the {wall} s "
                            "of the command")
        if problems:
            raise TraceError("; ".join(problems))

    def dump(self):
        """Spans (name, layer, parent index, start, end) and counts, as JSON data."""
        return {"fields": ["name", "layer", "parent", "start", "end"],
                "spans": [[s.name, s.layer, s.parent, s.start, s.end]
                          for s in self.spans],
                "counts": dict(self.counts), "rhs_s": self.rhs_s}
