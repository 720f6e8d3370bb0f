"""Training configuration and the flat key-value config file format.

Files hold one ``key = value`` pair per line; ``#`` starts a comment.
Keys mirror TrainConfig fields exactly. The files are the only statement
of a setting: TrainConfig has no defaults, so a file sets every field, and
a missing key, an unknown key and a key set twice are all rejected.
Every run trains on HazardWorld frames with the convolutional pixel
encoder, so no key names the environment or the encoder. An unconstrained
run is one whose Lagrange multiplier stays at zero: ``init_lambda = 0`` and
``lambda_lr = 0``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass
class TrainConfig:
    # environment: HazardWorld
    action_repeat: int
    view_size: int
    view_extent: float
    arena_size: float
    hazard_count: int
    hazard_radius: float
    goal_radius: float
    goal_bonus: float
    shaping_scale: float
    agent_speed: float
    spawn_clearance: float
    episode_limit: int  # agent decisions per episode (wrapped steps)

    # latent model
    z1_size: int
    z2_size: int
    feature_size: int
    model_hidden: int
    conv_channels: tuple
    recon_std: float

    # actor-critic
    ac_hidden: int
    init_alpha: float
    init_lambda: float

    # replay
    replay_capacity: int
    sequence_length: int

    # optimization
    model_batch: int
    ac_batch: int
    model_lr: float
    ac_lr: float
    lambda_lr: float
    gamma: float
    cost_gamma: float
    target_ema: float
    grad_clip: float

    # schedule
    warmup_transitions: int  # wrapped transitions stored before training
    warmup_model_steps: int
    total_env_steps: int  # base environment steps
    grad_steps_per_env_step: float

    # constraint; an unconstrained run is init_lambda = 0, lambda_lr = 0
    cost_budget: float

    # evaluation and output
    eval_interval: int  # base environment steps
    eval_episodes: int
    checkpoint_interval: int  # base env steps; 0 = final only
    seed: int

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{f.name} must not be NaN")
        positive = [
            "action_repeat", "view_size", "episode_limit", "z1_size", "z2_size",
            "feature_size", "model_hidden", "ac_hidden", "replay_capacity",
            "sequence_length", "model_batch", "ac_batch", "model_lr", "ac_lr",
            "gamma", "cost_gamma", "target_ema", "grad_clip", "init_alpha",
            "eval_interval", "eval_episodes",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ["lambda_lr", "init_lambda", "cost_budget", "warmup_transitions",
                     "warmup_model_steps", "total_env_steps", "grad_steps_per_env_step",
                     "checkpoint_interval"]:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0.0 < self.target_ema <= 1.0:
            raise ValueError("target_ema must be in (0, 1]")
        base_episode = self.episode_limit * self.action_repeat
        if base_episode > self.replay_capacity:
            raise ValueError("replay_capacity must hold at least one full episode")
        if self.sequence_length >= self.episode_limit:
            # an episode holds episode_limit records, a window sequence_length + 1
            raise ValueError("sequence_length must be below episode_limit")
        if len(self.conv_channels) != 2 or min(self.conv_channels) < 1:
            raise ValueError("conv_channels must list two positive channel counts")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["conv_channels"] = list(self.conv_channels)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        names, keys = {f.name for f in dataclasses.fields(cls)}, set(d)
        if keys - names:
            raise ValueError(f"unknown config keys: {sorted(keys - names)}")
        if names - keys:
            raise ValueError(f"missing config keys: {sorted(names - keys)}")
        return cls(**{**d, "conv_channels": tuple(int(c) for c in d["conv_channels"])})


# by field type; the one tuple field is conv_channels
_PARSERS = {"int": int, "float": float, "tuple": lambda raw: tuple(int(part) for part in raw.split(","))}


def load_config(path, overrides: dict | None = None) -> TrainConfig:
    parsers = {f.name: _PARSERS[f.type] for f in dataclasses.fields(TrainConfig)}
    values: dict = {}
    set_at: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in parsers:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_at:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is already set on line {set_at[key]}")
        set_at[key] = lineno
        values[key] = parsers[key](raw)
    if overrides:
        values.update(overrides)
    cfg = TrainConfig.from_dict(values)
    cfg.validate()
    return cfg


def save_config(cfg: TrainConfig, path):
    lines = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")
