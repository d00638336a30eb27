"""Span tracer bound from outside over g1min's cross-module names.

`Tracer.install()` walks the loaded g1min modules through `sys.modules` and
replaces every function a module imported from another g1min module with a
wrapper that records a span named `<defining module>.<function>`.  Nothing
under `src/` changes; `uninstall()` puts every original name back.

Spans are aggregated as they close: for each span name the tracer keeps a
call count and the self time (the span's duration minus the time of the spans
it caused).  Per-layer metrics are derived from those aggregates by
`layer_metrics()`.
"""

import inspect
import sys
import time
from collections import Counter

MODULES = ("exactnum", "models", "invariants", "weierstrass", "residue",
           "minimise", "construct", "cli")

# Names also bound in the module that defines them: the CLI entry point, the
# global driver's per-prime dispatch, and the Tate and kappa steps of level().
EXTRA_BINDINGS = (("g1min.cli", "main"), ("g1min.minimise", "minimise"),
                  ("g1min.weierstrass", "minimal_discriminant_valuation"),
                  ("g1min.weierstrass", "kappa"))

# Hot helpers whose calls are counted without timing them.
COUNT_ONLY = frozenset({"exactnum.valuation"})

ACT_MOVE_CALLERS = frozenset({"apply", "candidate"})
ACT_CERT_CALLERS = frozenset({"report", "minimise_global"})

ACTIONABLE_TAGS = frozenset({"product_both_repeated", "product_one_repeated",
                             "unique_singular_point", "repeated_linear_factor"})

# per-layer metric -> span names whose counts and self times it sums
SPAN_GROUPS = {
    "models.act.move": ("models.act.move",),
    "models.act.certificate": ("models.act.certificate",),
    "models.act.other": ("models.act.other",),
    "models.is_integral": ("models.is_integral",),
    "models.content_valuation": ("models.content_valuation",),
    "models.derived_forms": ("models.cubics_of_cube", "models.forms_of_hypercube",
                             "models.quartics_of_22", "models.quartics_of_hypercube"),
    "models.json": ("models.model_from_dict", "models.model_to_dict",
                    "models.group_element_to_dict", "models.group_element_from_dict"),
    "minimise.trial_division_factor": ("minimise.trial_division_factor",),
    "exactnum.is_prime": ("exactnum.is_prime",),
    "exactnum.fp_left_kernel_vector": ("exactnum.fp_left_kernel_vector",),
    "residue.classify_22": ("residue.classify_22_residue",),
    "residue.classify_cubic": ("residue.classify_cubic_residue",),
    "residue.repeated_root": ("residue.repeated_root",),
    "residue.saturation_defect": ("residue.saturation_defect",),
    "weierstrass.level": ("weierstrass.level",),
    "weierstrass.minimal_discriminant_valuation": (
        "weierstrass.minimal_discriminant_valuation",),
    "weierstrass.kappa": ("weierstrass.kappa",),
    "invariants.discriminant": ("invariants.discriminant",),
    "invariants.model_invariants": ("invariants.quartic_invariants",
                                    "invariants.cubic_invariants",
                                    "invariants.form22_invariants",
                                    "invariants.cube_invariants",
                                    "invariants.hypercube_invariants"),
    "construct.enumerate_minimal_weights": ("construct.enumerate_minimal_weights",),
    "construct.oracle_minimality_22": ("construct.oracle_minimality_22",),
    "cli.main": ("cli.main",),
}

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {}
for _group in SPAN_GROUPS:
    PER_LAYER[f"{_group}.calls"] = "calls/job"
    PER_LAYER[f"{_group}.self_ms"] = "ms/job"
for _module in MODULES + ("bench",):
    PER_LAYER[f"{_module}.self_ms"] = "ms/job"
PER_LAYER.update({
    "exactnum.valuation.calls": "calls/job",
    "minimise.steps_committed": "steps/job",
    "minimise.moves_attempted": "moves/job",
    "minimise.move_yield": "ratio",
    "minimise.locals_per_global": "ratio",
    "residue.prime_bound_errors": "errors/job",
    "residue.actionable_ratio": "ratio",
    "cli.exit_0.share": "ratio",
    "cli.exit_5.share": "ratio",
    "cli.exit_other.share": "ratio",
    "trace.job_ms": "ms/job",
    "trace.overhead_ratio": "ratio",
})


def _module_of(span):
    return span.split(".", 1)[0]


class Tracer:
    """Aggregating span recorder; one per traced run."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()  # (span, exception class name)
        self.counts = Counter()  # derived counters (steps, tags, ...)
        self._stack = []  # [span name, time covered by child spans]
        self._saved = []  # (namespace dict, name, original)
        self._defaults = []  # (function, original __defaults__)

    # -- spans --------------------------------------------------------------

    def run(self, name, fn, *args):
        """Call fn(*args) inside a span; used for whole jobs."""
        self._stack.clear()
        return self._span(name, fn, args, {})

    def _span(self, name, fn, args, kwargs):
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self.errors[name, type(exc).__name__] += 1
            raise
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
        self._observe(name, out)
        return out

    def _observe(self, name, out):
        if name.startswith("residue.classify_"):
            self.counts["classifications"] += 1
            self.counts["actionable"] += out.tag in ACTIONABLE_TAGS
        elif name == "minimise.minimise" and self._parent() == "minimise.minimise_global":
            self.counts["locals_in_global"] += 1
        elif name.startswith("minimise.minimise") and not self._parent().startswith("minimise."):
            reports = ([r for _, r in out.local_reports] if hasattr(out, "local_reports")
                       else [out])
            self.counts["steps"] += sum(len(r.steps) for r in reports)
        elif name == "cli.main":
            self.counts[f"exit_{out}"] += 1

    def _parent(self):
        return self._stack[-1][0] if self._stack else ""

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        if name == "models.act":
            def traced_act(*args, **kwargs):
                caller = sys._getframe(1).f_code.co_name
                kind = ("move" if caller in ACT_MOVE_CALLERS else
                        "certificate" if caller in ACT_CERT_CALLERS else "other")
                return self._span(f"models.act.{kind}", fn, args, kwargs)
            return traced_act

        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced

    # -- binding --------------------------------------------------------------

    def install(self):
        """Bind wrappers over every cross-module g1min function name."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[id(fn)] = self._wrap(fn, name)
            return wrappers[id(fn)]

        targets = []
        for modname in ("g1min",) + tuple(f"g1min.{m}" for m in MODULES):
            ns = vars(sys.modules[modname])
            for attr, obj in ns.items():
                if _is_g1min_function(obj) and obj.__module__ != modname:
                    targets.append((ns, attr, obj))
        for modname, attr in EXTRA_BINDINGS:
            ns = vars(sys.modules[modname])
            targets.append((ns, attr, ns[attr]))
        for ns, attr, obj in targets:
            self._saved.append((ns, attr, obj))
            ns[attr] = wrapper_for(obj)
        # defaults captured at definition time, e.g. minimise_global's factoriser
        for modname in tuple(f"g1min.{m}" for m in MODULES):
            for obj in vars(sys.modules[modname]).values():
                defaults = getattr(obj, "__defaults__", None) if inspect.isfunction(obj) else None
                if defaults and any(_is_g1min_function(d) for d in defaults):
                    self._defaults.append((obj, defaults))
                    obj.__defaults__ = tuple(wrapper_for(d) if _is_g1min_function(d) else d
                                             for d in defaults)

    def uninstall(self):
        """Restore every name and default replaced by install()."""
        for ns, attr, obj in reversed(self._saved):
            ns[attr] = obj
        for fn, defaults in self._defaults:
            fn.__defaults__ = defaults
        self._saved.clear()
        self._defaults.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- metrics --------------------------------------------------------------

    def layer_metrics(self, jobs, traced_s, untraced_s):
        """Per-layer metrics over `jobs` traced jobs that took `traced_s`
        seconds; the same jobs took `untraced_s` seconds untraced."""
        per_job = 1.0 / max(jobs, 1)
        out = {}
        for group, spans in SPAN_GROUPS.items():
            out[f"{group}.calls"] = sum(self.calls[s] for s in spans) * per_job
            out[f"{group}.self_ms"] = sum(self.self_s[s] for s in spans) * 1e3 * per_job
        module_self = Counter()
        for span, seconds in self.self_s.items():
            module_self[_module_of(span)] += seconds
        for module in MODULES + ("bench",):
            out[f"{module}.self_ms"] = module_self[module] * 1e3 * per_job
        moves = self.calls["models.act.move"]
        globals_ = self.calls["minimise.minimise_global"]
        prime_bound = sum(n for (span, exc), n in self.errors.items()
                          if exc == "PrimeBoundError" and span.startswith("residue."))
        cli_jobs = self.calls["cli.main"]
        exits = {k[5:]: n for k, n in self.counts.items() if k.startswith("exit_")}
        out.update({
            "exactnum.valuation.calls": self.calls["exactnum.valuation"] * per_job,
            "minimise.steps_committed": self.counts["steps"] * per_job,
            "minimise.moves_attempted": moves * per_job,
            "minimise.move_yield": _ratio(self.counts["steps"], moves),
            "minimise.locals_per_global": _ratio(self.counts["locals_in_global"], globals_),
            "residue.prime_bound_errors": prime_bound * per_job,
            "residue.actionable_ratio": _ratio(self.counts["actionable"],
                                               self.counts["classifications"]),
            "cli.exit_0.share": _ratio(exits.get("0", 0), cli_jobs),
            "cli.exit_5.share": _ratio(exits.get("5", 0), cli_jobs),
            "cli.exit_other.share": _ratio(
                cli_jobs - exits.get("0", 0) - exits.get("5", 0), cli_jobs),
            "trace.job_ms": traced_s * 1e3 * per_job,
            "trace.overhead_ratio": _ratio(traced_s, untraced_s),
        })
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _is_g1min_function(obj):
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", "").startswith("g1min."))
