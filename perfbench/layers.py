"""Per-layer tracing from outside the program.

A Tracer replaces each public function of cavitrap's layer modules, in
every cavitrap namespace that holds it, with a wrapper that records a span.
Spans nest on a stack, so each one knows how much of its interval its
children covered and reports self time. Aggregates stay in memory; nothing
under src/ changes, and `uninstall` restores the original bindings.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("potential", "equilibrium", "transition", "modes", "spin", "barrier", "cli")

# unit of every per-layer metric, in report order
METRICS = {
    "potential.energy_grad_s": "s",
    "potential.energy_grad_calls": "count",
    "potential.hessian_s": "s",
    "potential.hessian_calls": "count",
    "potential.batch_s": "s",
    "potential.batch_rows": "count",
    "potential.zblock_s": "s",
    "equilibrium.lbfgs_s": "s",
    "equilibrium.lbfgs_nfev": "count",
    "equilibrium.lbfgs_nit": "count",
    "equilibrium.align_s": "s",
    "equilibrium.align_calls": "count",
    "equilibrium.search_self_s": "s",
    "equilibrium.restart_yield": "ratio",
    "equilibrium.minima_returned": "count",
    "transition.alpha_tr_s": "s",
    "transition.alpha_tr_calls": "count",
    "transition.z_solves": "count",
    "modes.normal_modes_s": "s",
    "modes.label_modes_s": "s",
    "spin.jij_s": "s",
    "barrier.step_s": "s",
    "barrier.steps": "count",
    "barrier.path_s": "s",
    "cli.run_self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # seconds covered by the children of each open span
        self._patched = []  # (namespace, name, original)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span, fn, after=None):
        tracer = self
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += duration
                tracer.calls[span] += 1
                tracer.total[span] += duration
                tracer.self_time[span] += duration - children
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer.counts, bound.arguments, result)
            return result

        return wrapper

    def _patch_everywhere(self, package, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self, package):
        """Wrap every public function of each layer module, wherever it is bound."""
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn, _AFTER.get(f"{layer}.{name}"))
                self._patch_everywhere(package, fn, wrapper)
        # boundaries into other code, counted where the layer calls them
        eq = sys.modules[f"{package.__name__}.equilibrium"]
        tr = sys.modules[f"{package.__name__}.transition"]
        for module, name, span in (
            (eq, "minimize", "equilibrium.minimize"),
            (tr, "depth_for_aspect", "transition.depth_for_aspect"),
        ):
            original = getattr(module, name)
            self._patched.append((module, name, original))
            setattr(module, name, self._wrap(span, original, _AFTER.get(span)))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- report --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics (without trace.overhead_s) from the spans so far."""
        t, s, c, n = self.total, self.self_time, self.calls, self.counts
        attempted = n["restarts_attempted"]
        return {
            "potential.energy_grad_s": t["potential.planar_energy"] + t["potential.planar_gradient"],
            "potential.energy_grad_calls": c["potential.planar_energy"] + c["potential.planar_gradient"],
            "potential.hessian_s": t["potential.planar_hessian"] + t["potential.hessian"],
            "potential.hessian_calls": c["potential.planar_hessian"] + c["potential.hessian"],
            "potential.batch_s": t["potential.planar_energy_batch"],
            "potential.batch_rows": n["batch_rows"],
            "potential.zblock_s": t["potential.coulomb_z_block"] + t["potential.optical_z_curvature"],
            "equilibrium.lbfgs_s": s["equilibrium.minimize"],
            "equilibrium.lbfgs_nfev": n["lbfgs_nfev"],
            "equilibrium.lbfgs_nit": n["lbfgs_nit"],
            "equilibrium.align_s": t["equilibrium.align_configurations"],
            "equilibrium.align_calls": c["equilibrium.align_configurations"],
            "equilibrium.search_self_s": s["equilibrium.find_equilibria"],
            "equilibrium.restart_yield": n["restarts_converged"] / attempted if attempted else 0.0,
            "equilibrium.minima_returned": n["minima_returned"],
            "transition.alpha_tr_s": t["transition.find_alpha_tr"],
            "transition.alpha_tr_calls": c["transition.find_alpha_tr"],
            "transition.z_solves": c["transition.depth_for_aspect"],
            "modes.normal_modes_s": t["modes.normal_modes"],
            "modes.label_modes_s": t["modes.label_modes"],
            "spin.jij_s": t["spin.compute_jij"],
            "barrier.step_s": s["barrier.propose_step"],
            "barrier.steps": c["barrier.propose_step"],
            "barrier.path_s": t["barrier.optimize_path"],
            "cli.run_self_s": s["cli.run"],
            "cli.bytes_written": n["bytes_written"],
        }


# -- counters read from arguments and results ----------------------------------


def _after_minimize(counts, arguments, result):
    counts["lbfgs_nfev"] += result.nfev
    counts["lbfgs_nit"] += result.nit


def _after_batch(counts, arguments, result):
    counts["batch_rows"] += len(result)


def _after_find_equilibria(counts, arguments, result):
    counts["restarts_attempted"] += arguments["n_restarts"]
    counts["restarts_converged"] += sum(eq.n_found_duplicates for eq in result)
    counts["minima_returned"] += len(result)


def _after_run(counts, arguments, manifest):
    manifest_path = os.path.join(arguments["out_dir"], "manifest.json")
    counts["bytes_written"] += sum(
        os.path.getsize(p) for p in (*manifest.outputs, manifest_path)
    )


_AFTER = {
    "equilibrium.minimize": _after_minimize,
    "potential.planar_energy_batch": _after_batch,
    "equilibrium.find_equilibria": _after_find_equilibria,
    "cli.run": _after_run,
}
