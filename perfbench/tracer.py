"""Per-layer tracing by wrapping the package's public names from outside.

Nothing under src/ is edited: `Tracer.install` replaces module and class
attributes with timing wrappers and `Tracer.uninstall` puts the originals
back, so traced and untraced repetitions can share one process.  A name that
the package no longer has is recorded as missing and its metrics are left
out; it is never an error.

Every wrapped call takes part in self-time accounting (its duration is
subtracted from the enclosing wrapped call).  Ordinary calls also record a
span (name, start, end, parent, repetition); hot callbacks, called once or
more per time step, only add to aggregate counters.
"""

import functools
import importlib
import inspect
import itertools
import os
import time

import numpy as np

# (layer, "module[:Class]", attribute, hot)
SITES = [
    ("cli.load", "memoryflow.cli", "load_experiment", False),
    ("cli.load", "memoryflow.cli:ExperimentConfig", "from_file", False),
    ("kernels.build", "memoryflow.cli", "load_kernel_file", False),
    ("viscoelastic.assemble", "memoryflow.cli", "assemble", False),
    ("viscoelastic.f_modal", "memoryflow.viscoelastic", "f_modal", True),
    ("viscoelastic.lk_split", "memoryflow.cli", "lk_split", False),
    ("viscoelastic.energy", "memoryflow.cli", "energy_sigma", False),
    ("viscoelastic.energy", "memoryflow.cli", "phi_functional", False),
    ("viscoelastic.energy", "memoryflow.cli", "phi_control_ratio", False),
    ("viscoelastic.energy", "memoryflow.cli", "dissipation_rhs", False),
    ("evolution.integrate", "memoryflow.cli", "integrate", False),
    ("evolution.memory_force", "memoryflow.evolution:MemoryForce", "history_force", True),
    ("evolution.memory_force", "memoryflow.evolution:MemoryForce", "state_force", True),
    ("evolution.reconstruct_eta", "memoryflow.evolution", "reconstruct_eta", False),
    ("evolution.reconstruct_xi", "memoryflow.evolution", "reconstruct_xi", False),
    ("evolution.traj_csv", "memoryflow.cli", "save_trajectory_csv", False),
    ("spaces.lambda_map", "memoryflow.cli", "lambda_map", False),
    ("attractors.cloud", "memoryflow.cli", "cloud_from_states", False),
    ("attractors.cloud_csv", "memoryflow.cli", "save_cloud_csv", False),
    ("attractors.cloud_csv", "memoryflow.cli", "load_cloud_csv", False),
    ("attractors.hausdorff", "memoryflow.cli", "hausdorff_semidist", False),
]
KERNEL_MU = "kernels.mu"        # wraps the `mu` attribute of each loaded kernel

# per-layer metric -> unit, in BENCHMARK.json order
METRIC_UNITS = {
    "cli.load_s": "s",
    "kernels.build_s": "s",
    "kernels.mu_points": "count",
    "kernels.mu_s": "s",
    "viscoelastic.assemble_s": "s",
    "viscoelastic.f_modal_calls": "count",
    "viscoelastic.f_modal_s": "s",
    "viscoelastic.f_modal_flops": "flop",
    "viscoelastic.lk_split_s": "s",
    "viscoelastic.energy_s": "s",
    "evolution.integrate_calls": "count",
    "evolution.integrate_s": "s",
    "evolution.member_steps": "count",
    "evolution.step_us": "us",
    "evolution.stepper_self_s": "s",
    "evolution.memory_force_calls": "count",
    "evolution.memory_force_s": "s",
    "evolution.memory_force_flops": "flop",
    "evolution.reconstruct_xi_calls": "count",
    "evolution.reconstruct_xi_s": "s",
    "evolution.reconstruct_eta_s": "s",
    "evolution.traj_csv_s": "s",
    "evolution.traj_csv_bytes": "byte",
    "spaces.lambda_map_calls": "count",
    "spaces.lambda_map_s": "s",
    "attractors.cloud_s": "s",
    "attractors.cloud_csv_s": "s",
    "attractors.hausdorff_s": "s",
    "attractors.hausdorff_pairs": "count",
    "trace.overhead_s": "s",
}


def _resolve(target):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Spans and counters held in memory until the run writes them out."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.missing = []
        self.spans = []
        self.stats = {}          # layer -> [calls, inclusive s, self s]
        self.counts = {}         # computed counters: flops, points, bytes, ...
        self.rep = 0
        self._stack = []         # per active call: [child s, nearest span id]
        self._installed = []
        self._ids = itertools.count()
        self._t0 = time.perf_counter()

    # -- installation ---------------------------------------------------------

    def install(self):
        hooks = {
            "integrate": self._on_integrate,
            "f_modal": self._on_f_modal,
            "history_force": self._on_memory_force,
            "state_force": self._on_memory_force,
            "load_kernel_file": self._on_kernel,
            "save_trajectory_csv": self._on_traj_csv,
            "hausdorff_semidist": self._on_hausdorff,
        }
        for layer, target, attr, hot in self.sites:
            try:
                owner = _resolve(target)
            except (ImportError, AttributeError):
                owner = None
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                self.missing.append("%s.%s" % (target, attr))
                continue
            self.stats.setdefault(layer, [0, 0.0, 0.0])
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self.wrap(layer, func, hot, hooks.get(attr))
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod)
                    else wrapped)
            self._installed.append((owner, attr, raw))
            if attr == "load_kernel_file":
                self.stats.setdefault(KERNEL_MU, [0, 0.0, 0.0])

    def uninstall(self):
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed = []

    def wrap(self, layer, fn, hot, on_return=None):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        clock = time.perf_counter
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = parent if hot else next(ids)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                st = stats[layer]
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[0]
                if not hot:
                    spans.append((span_id, parent, layer, start - self._t0,
                                  end - self._t0, self.rep))
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    # -- computed counters --------------------------------------------------

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _on_integrate(self, args, traj):
        self._count("evolution.member_steps", int(traj.n_steps))

    def _on_f_modal(self, args, result):
        model, u = args[0], args[1]
        if getattr(model, "f_spec", None) != "zero":
            J = np.size(u)
            self._count("viscoelastic.f_modal_flops", 4 * (4 * J - 1) * J)

    def _on_memory_force(self, args, result):
        force, n, arr = args[0], args[1], args[2]
        w_nodes = getattr(force, "w_nodes", None)
        if w_nodes is not None:
            m = min(int(n), int(w_nodes))
            self._count("evolution.memory_force_flops", 2 * m * arr.shape[-1])

    def _on_kernel(self, args, kernel):
        mu = getattr(kernel, "mu", None)
        if callable(mu):
            def on_mu(mu_args, result):
                self._count("kernels.mu_points", int(np.size(mu_args[0])))
            kernel.mu = self.wrap(KERNEL_MU, mu, True, on_mu)

    def _on_traj_csv(self, args, result):
        self._count("evolution.traj_csv_bytes", os.path.getsize(args[1]))

    def _on_hausdorff(self, args, result):
        self._count("attractors.hausdorff_pairs", len(args[0]) * len(args[1]))

    # -- results --------------------------------------------------------------

    def reset(self):
        """Zero the counters before the next repetition; spans are kept."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.counts = {}

    def self_times(self):
        """Self time per layer; the integrate layer's self time is the stepper's."""
        return {layer: st[2] for layer, st in self.stats.items()}

    def metrics(self):
        """Per-layer metrics of the repetition since the last reset.

        Times ending in `_s` are self times, except evolution.integrate_s,
        which is the inclusive integrate span.  Metrics of a layer whose
        names are all missing are left out.
        """
        out = {}

        def layer(name, calls=False, self_s=True):
            if name in self.stats:
                st = self.stats[name]
                out[name + "_s"] = st[2] if self_s else st[1]
                if calls:
                    out[name + "_calls"] = st[0]

        layer("cli.load")
        layer("kernels.build")
        layer(KERNEL_MU)
        layer("viscoelastic.assemble")
        layer("viscoelastic.f_modal", calls=True)
        layer("viscoelastic.lk_split")
        layer("viscoelastic.energy")
        layer("evolution.integrate", calls=True, self_s=False)
        layer("evolution.memory_force", calls=True)
        layer("evolution.reconstruct_xi", calls=True)
        layer("evolution.reconstruct_eta")
        layer("evolution.traj_csv")
        layer("spaces.lambda_map", calls=True)
        layer("attractors.cloud")
        layer("attractors.cloud_csv")
        layer("attractors.hausdorff")
        counted = {
            "kernels.mu_points": KERNEL_MU,
            "viscoelastic.f_modal_flops": "viscoelastic.f_modal",
            "evolution.memory_force_flops": "evolution.memory_force",
            "evolution.member_steps": "evolution.integrate",
            "evolution.traj_csv_bytes": "evolution.traj_csv",
            "attractors.hausdorff_pairs": "attractors.hausdorff",
        }
        for key, name in counted.items():
            if name in self.stats:
                out[key] = self.counts.get(key, 0)
        if "evolution.integrate" in self.stats:
            st = self.stats["evolution.integrate"]
            out["evolution.stepper_self_s"] = st[2]
            steps = out["evolution.member_steps"]
            out["evolution.step_us"] = 1e6 * st[1] / steps if steps else 0.0
        return out

    def dump(self):
        """JSON-ready record of every span and of the missing names."""
        return {
            "spans": [dict(zip(("id", "parent", "layer", "start_s", "end_s", "rep"), s))
                      for s in self.spans],
            "missing": self.missing,
        }
