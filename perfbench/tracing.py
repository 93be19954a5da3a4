"""Span tracing from outside the program.

The tracer replaces public functions of ``minreal`` modules by wrappers that
record a span (name, start, end, parent) per call, and restores them
afterwards. Each layer is named by the public names its callers look up,
so a name imported into another module (``minreal.cem.rollout_batch``) is
wrapped there too. A name that does not exist is reported as absent instead
of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

import numpy as np

# span name -> public names, "module:attr" or "module:Class.method"
TARGETS = {
    "env.collect": ["minreal.env:collect_dataset"],
    "env.transitions_io": ["minreal.env:save_transitions", "minreal.env:load_transitions"],
    "env.step": ["minreal.env:env_step"],
    "qvae.train": ["minreal.qvae:train_qvae"],
    "qvae.loss": ["minreal.qvae:qvae_loss"],
    "qvae.encode": ["minreal.qvae:QvaeModel.encode"],
    "autodiff.backward": ["minreal.autodiff:backward"],
    "nets.adam_step": ["minreal.nets:Adam.step"],
    "nets.checkpoint_io": [
        f"minreal.{mod}:{fn}"
        for mod in ("nets", "qvae", "world")
        for fn in ("save_checkpoint", "load_checkpoint")
    ],
    "latent.mask": ["minreal.latent:dim_importance", "minreal.latent:build_mask"],
    "world.encode_dataset": ["minreal.world:encode_dataset"],
    "world.train": ["minreal.world:train_world"],
    "world.wm_loss": ["minreal.world:wm_loss"],
    "world.dataset_io": ["minreal.world:save_world_dataset", "minreal.world:load_world_dataset"],
    "cem.plan": ["minreal.cem:plan"],
    "cem.sample": ["minreal.cem:sample_candidates", "minreal.cem:clip_candidates"],
    "cem.score": ["minreal.cem:score_candidates"],
    "cem.elite": ["minreal.cem:select_elites"],
    "cem.refit": ["minreal.cem:refit_policy", "minreal.cem:smooth_update"],
    "world.rollout": [
        "minreal.cem:rollout_batch",
        "minreal.world:rollout_batch",
        "minreal.cem:rollout",
        "minreal.world:rollout",
    ],
    "world.dynamics": ["minreal.world:WorldModel.dynamics_mean"],
    "world.reward": ["minreal.world:WorldModel.reward_mean"],
}



def _resolve(target):
    """(owner object, attribute name) for a public name, or None if absent."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self, targets=None):
        self.targets = TARGETS if targets is None else targets
        self.spans = []  # [name, start, end, parent index, info dict]
        self._stack = []
        self._saved = []
        self.absent_names = []
        self.absent_layers = []

    # -- installation --------------------------------------------------------

    def install(self):
        self.absent_names, self.absent_layers = [], []
        for span_name, names in self.targets.items():
            found = 0
            for target in names:
                where = _resolve(target)
                if where is None:
                    self.absent_names.append(target)
                    continue
                owner, attr = where
                self._saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, self._wrap(span_name, target, getattr(owner, attr)))
                found += 1
            if not found:
                self.absent_layers.append(span_name)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if original is None:  # was inherited, not set on the owner
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, span_name, target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A layer re-entered through a second wrapped name (one public
            # function calling another of the same layer) is one span.
            if any(tracer.spans[i][0] == span_name for i in tracer._stack):
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [span_name, time.perf_counter(), None, parent, {}]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            _annotate(span_name, target, span[4], args, result)
            return result

        return wrapper

    # -- queries ---------------------------------------------------------------

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name):
        return float(sum(self.durations(name)))

    def count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name):
        """Duration of the named spans minus the time their child spans cover."""
        child_time = {}
        for s in self.spans:
            if s[3] is not None:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        return float(
            sum((s[2] - s[1]) - child_time.get(i, 0.0)
                for i, s in enumerate(self.spans) if s[0] == name)
        )

    def info(self, name, key):
        """The `key` annotations of the named spans that recorded one."""
        return [s[4][key] for s in self.spans if s[0] == name and key in s[4]]


def _annotate(span_name, target, info, args, result):
    """Counts taken at the layer boundary from the call's own arguments and
    result. A call whose signature does not match records nothing."""
    if ":save_" in target and args and isinstance(args[0], (str, os.PathLike)):
        info["bytes"] = os.path.getsize(args[0])
    elif span_name == "world.rollout" and len(args) == 3:
        model, _, seqs = args
        seqs = np.asarray(seqs)
        scores = np.asarray(result)
        if seqs.ndim == 3 and scores.shape == seqs.shape[:1]:
            k, steps, _ = seqs.shape
            info["rows"] = k
            info["finite"] = int(np.count_nonzero(np.isfinite(scores)))
            info["flop"], info["bytes"] = _rollout_cost(model, k, steps)
    elif span_name == "cem.plan" and isinstance(result, tuple) and len(result) == 2:
        diag = result[1]
        if hasattr(diag, "iterations_completed"):
            info["iterations"] = diag.iterations_completed
    elif span_name == "qvae.encode" and len(args) == 2:
        x = np.asarray(args[1])
        info["rows"] = 1 if x.ndim == 1 else x.shape[0]


def _rollout_cost(model, k, steps):
    """Computed (not measured) floating-point work and bytes moved by one
    mean-propagation rollout: per step, each dense layer of the dynamics and
    reward nets does a (k x fan_in) @ (fan_in x fan_out) product plus the
    bias; bytes count float64 inputs, weights, bias and outputs once each."""
    flop = 0
    moved = 0
    for net in (getattr(model, "dynamics", None), getattr(model, "reward", None)):
        widths = getattr(getattr(net, "spec", None), "layer_widths", None)
        if widths is None:
            return 0, 0
        for fan_in, fan_out in zip(widths, widths[1:]):
            flop += 2 * k * fan_in * fan_out + k * fan_out
            moved += 8 * (k * fan_in + fan_in * fan_out + fan_out + k * fan_out)
    return flop * steps, moved * steps
