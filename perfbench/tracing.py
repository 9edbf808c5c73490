"""Span tracing around the public functions of each ``mgrl`` layer.

A hook wraps one function at every module attribute through which it is
called.  ``from .neural import adam_step`` binds the name in ``mgrl.ppo``,
so the hook for ``adam_step`` replaces ``mgrl.ppo.adam_step``; patching
``mgrl.neural.adam_step`` alone would never fire.  A call site whose
module or attribute no longer exists is recorded as absent and skipped,
so a refactor that renames a function leaves the workload running and
shows up as an absent hook instead of a crash.

Spans (hook, start, end, parent) are kept in flat in-memory arrays while
the tracer is installed; :meth:`Tracer.summary` turns them into call
counts and self times (a span's duration minus that of its child spans).
"""

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# (layer, function, modules whose attribute is the call site)
HOOKS = (
    ("env", "MicrogridEnv.step", ("mgrl.env",)),
    ("env", "MicrogridEnv.reset", ("mgrl.env",)),
    ("neural", "mlp_forward", ("mgrl.neural",)),
    ("neural", "mlp_backward", ("mgrl.ppo",)),
    ("neural", "sample_action", ("mgrl.ppo",)),
    ("neural", "forward_policy", ("mgrl.neural", "mgrl.ppo", "mgrl.explain")),
    ("neural", "forward_value", ("mgrl.ppo",)),
    ("neural", "adam_step", ("mgrl.ppo",)),
    ("neural", "save_checkpoint", ("mgrl.neural", "mgrl.cli")),
    ("neural", "load_checkpoint", ("mgrl.cli",)),
    ("ppo", "train", ("mgrl.ppo", "mgrl.cli")),
    ("ppo", "collect_rollouts", ("mgrl.ppo",)),
    ("ppo", "compute_gae", ("mgrl.ppo",)),
    ("ppo", "ppo_loss_and_grads", ("mgrl.ppo",)),
    ("ppo", "evaluate_policy", ("mgrl.ppo", "mgrl.cli")),
    ("ppo", "run_episode", ("mgrl.ppo",)),
    ("explain", "explain_step", ("mgrl.cli",)),
    ("explain", "explain_action", ("mgrl.explain",)),
    ("explain", "perturb", ("mgrl.explain",)),
    ("explain", "proximity_weights", ("mgrl.explain",)),
    ("explain", "fit_surrogate", ("mgrl.explain",)),
    ("explain", "render_explanation", ("mgrl.cli",)),
    ("trajectory", "write_trajectory_csv", ("mgrl.cli",)),
    ("trajectory", "read_trajectory_csv", ("mgrl.cli",)),
    ("scenario", "synth_cyclone_scenario", ("mgrl.scenario", "mgrl.cli")),
    ("scenario", "write_scenario_csv", ("mgrl.scenario", "mgrl.cli")),
    ("scenario", "load_scenario_csv", ("mgrl.scenario", "mgrl.cli")),
    ("metrics", "resilience_report", ("mgrl.cli",)),
    ("metrics", "reward_curve_summary", ("mgrl.cli",)),
    ("metrics", "write_train_metrics_csv", ("mgrl.metrics", "mgrl.cli")),
    ("metrics", "read_train_metrics_csv", ("mgrl.cli",)),
    ("svg", "line_chart", ("mgrl.cli",)),
    ("svg", "bar_chart", ("mgrl.explain",)),
    ("cli", "main", ("mgrl.cli",)),
    ("cli", "cmd_eval", ("mgrl.cli",)),
    ("cli", "cmd_explain", ("mgrl.cli",)),
    ("cli", "cmd_report", ("mgrl.cli",)),
    ("config", "load_run_config", ("mgrl.cli",)),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))


def _resolve(module_name: str, dotted: str):
    """(owner object, attribute name) of a call site, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records a span for every call through the hooked call sites.

    Use as a context manager: entering patches the call sites, leaving
    restores the original attributes.
    """

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.absent_sites: list[str] = []
        self.absent_hooks: list[str] = []

    def _wrap(self, fn, hook_id: int):
        names, parents = self.names, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(hook_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        self.absent_sites.clear()
        self.absent_hooks.clear()
        for hook_id, (layer, fn_name, modules) in enumerate(HOOKS):
            found = 0
            for module_name in modules:
                site = _resolve(module_name, fn_name)
                if site is None:
                    self.absent_sites.append(f"{module_name}.{fn_name}")
                    continue
                owner, attr = site
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, hook_id))
                found += 1
            if not found:
                self.absent_hooks.append(f"{layer}.{fn_name}")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def summary(self) -> list[tuple[int, float]]:
        """(calls, total self seconds) per hook, in HOOKS order."""
        n_hooks = len(HOOKS)
        names = np.frombuffer(self.names, dtype=np.intc).astype(np.intp)
        if names.size == 0:
            return [(0, 0.0)] * n_hooks
        parents = np.frombuffer(self.parents, dtype=np.intc).astype(np.intp)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=names.size)
        self_time = np.bincount(names, weights=dur - child, minlength=n_hooks)
        calls = np.bincount(names, minlength=n_hooks)
        return [(int(c), float(t)) for c, t in zip(calls, self_time)]
