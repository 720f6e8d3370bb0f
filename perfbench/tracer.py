"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces a function or method at the name through which its
caller looks it up (a module global such as ``costbound.trainer.clip_grad_norm``
or a class attribute such as ``LatentModel.model_loss``) with a wrapper that
records one span per call: its name, start, end and enclosing span. Spans are
kept in flat arrays and written out once, when the run ends. ``uninstall``
puts every original back, so untraced rounds run the program unchanged.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, span_name: str, fn):
        idx = self._index.setdefault(span_name, len(self.names))
        if idx == len(self.names):
            self.names.append(span_name)
        open_spans, clock = self._open, time.perf_counter
        name, parent, start, end = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name.append(idx)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                open_spans.pop()

        return traced

    def install(self, targets):
        """Wrap every ``(owner, attribute, span name)``; owner is a module or class."""
        for owner, attr, span_name in targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(span_name, original.__func__))
            else:
                wrapped = self._wrap(span_name, original)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self):
        """(name index, parent, start, end) as numpy arrays."""
        return (
            np.frombuffer(self.name, dtype=np.int32).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def write(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and their durations add up to the time they cover.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def uncovered_time(parent: np.ndarray, start: np.ndarray, end: np.ndarray, t0: float, t1: float) -> float:
    """Time in [t0, t1] that no root span covers (root spans never overlap)."""
    roots = (parent < 0) & (start >= t0) & (end <= t1)
    return (t1 - t0) - float(np.sum(end[roots] - start[roots]))


def span_targets():
    """Every traced boundary as ``(owner, attribute, span name)``.

    Functions that a module imported by name are wrapped in that module's
    namespace, because that is where its code looks them up.
    """
    from costbound import agent, autodiff, envs, latent, nn, optim, replay, trainer, verify

    targets = [
        (latent.LatentModel, "infer_posterior", "latent.infer_posterior"),
        (latent.LatentModel, "model_loss", "latent.model_loss"),
        (latent.LatentModel, "filter_step", "latent.filter_step"),
        (latent.LatentModel, "filter_init", "latent.filter_init"),
        (autodiff, "backward", "autodiff.backward"),
        (autodiff, "conv2d", "autodiff.conv2d"),
        (autodiff, "conv2d_transpose", "autodiff.conv2d_transpose"),
        (nn.ConvEncoder, "__call__", "nn.encoder"),
        (nn.ConvDecoder, "__call__", "nn.decoder"),
        (trainer, "clip_grad_norm", "optim.clip"),
        (optim.Adam, "step", "optim.adam"),
        (agent.TemperatureState, "update", "agent.temperature"),
        (verify, "temperature_loss", "agent.temperature"),
        (replay.ReplayBuffer, "sample_sequences", "replay.sample"),
        (replay.ReplayBuffer, "num_windows", "replay.num_windows"),
        (replay.ReplayBuffer, "append", "replay.append"),
        (replay.ReplayBuffer, "state", "replay.state"),
        (replay.ReplayBuffer, "load_state", "replay.load_state"),
        (envs.HazardWorld, "step", "envs.hazard_step"),
        (envs.HazardWorld, "render_uint8", "envs.render"),
        (envs.TabularChainEnv, "step", "envs.chain_step"),
        (trainer, "save_checkpoint", "checkpoint.save"),
        (trainer, "load_checkpoint", "checkpoint.load"),
        (trainer.Trainer, "save", "trainer.save"),
        (trainer.Trainer, "restore", "trainer.restore"),
        (trainer.Trainer, "run", "trainer.run"),
        (trainer.Trainer, "evaluate", "trainer.evaluate"),
        (verify, "mc_return", "oracle.mc_return"),
        (verify, "value_iteration", "oracle.value_iteration"),
        (verify, "finite_diff_grad", "oracle.finite_diff_grad"),
        (verify, "fitted_safety_critic_error", "verify.fitted_critic"),
        (verify, "run_gradient_suite", "verify.gradient_suite"),
        (verify, "run_tabular_suite", "verify.tabular_suite"),
    ]
    for module in (trainer, verify):
        for fn, span_name in (
            ("ema_update", "optim.ema"),
            ("reward_critic_losses", "agent.reward_critic"),
            ("safety_critic_loss", "agent.safety_critic"),
            ("policy_loss", "agent.policy"),
        ):
            targets.append((module, fn, span_name))
    return targets
