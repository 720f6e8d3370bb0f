"""Training configuration and the flat key-value config file format.

Files hold one ``key = value`` pair per line; ``#`` starts a comment.
Keys mirror TrainConfig fields exactly; any other key, and a key set
twice, is rejected. The shipped files set every field.
Every run trains on HazardWorld frames with the convolutional pixel
encoder, so no key names the environment or the encoder. ``lambda_lr`` has
no default on purpose: the right value is strongly problem-dependent, so
every config file must set it explicitly. An unconstrained run is one whose
Lagrange multiplier stays at zero: ``init_lambda = 0`` and ``lambda_lr = 0``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass
class TrainConfig:
    # environment: HazardWorld
    action_repeat: int = 2
    view_size: int = 16
    view_extent: float = 8.0
    arena_size: float = 10.0
    hazard_count: int = 5
    hazard_radius: float = 1.0
    goal_radius: float = 0.8
    goal_bonus: float = 1.0
    shaping_scale: float = 1.0
    agent_speed: float = 0.5
    spawn_clearance: float = 1.5
    episode_limit: int = 100          # agent decisions per episode (wrapped steps)

    # latent model
    z1_size: int = 32
    z2_size: int = 200
    feature_size: int = 64
    model_hidden: int = 256
    conv_channels: tuple = (16, 32)
    recon_std: float = 0.4

    # actor-critic
    ac_hidden: int = 256
    init_alpha: float = 4e-3
    init_lambda: float = 2e-2
    target_entropy: float | None = None  # None: -action_dim

    # replay
    replay_capacity: int = 200_000
    sequence_length: int = 10

    # optimization
    model_batch: int = 32
    ac_batch: int = 64
    model_lr: float = 1e-4
    ac_lr: float = 2e-4
    lambda_lr: float | None = None       # required, no trusted default
    gamma: float = 0.99
    cost_gamma: float = 0.995
    target_ema: float = 5e-3
    grad_clip: float = 40.0

    # schedule
    warmup_transitions: int = 60_000     # wrapped transitions stored before training
    warmup_model_steps: int = 30_000
    total_env_steps: int = 1_000_000     # base environment steps
    grad_steps_per_env_step: float = 1.0

    # constraint; an unconstrained run is init_lambda = 0, lambda_lr = 0
    cost_budget: float = 25.0

    # evaluation and output
    eval_interval: int = 1000            # base environment steps
    eval_episodes: int = 10
    checkpoint_interval: int = 0         # base env steps; 0 = final only
    seed: int = 0

    def validate(self):
        if self.lambda_lr is None:
            raise ValueError("lambda_lr must be set explicitly (no trusted default)")
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
        if len(self.conv_channels) != 2:
            raise ValueError("conv_channels must list two channel counts")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["conv_channels"] = list(self.conv_channels)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        kw = dict(d)
        if "conv_channels" in kw:
            kw["conv_channels"] = tuple(int(c) for c in kw["conv_channels"])
        unknown = set(kw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kw)


def _parse_value(field: dataclasses.Field, raw: str):
    raw = raw.strip()
    ftype = field.type
    if ftype == "float | None":
        if raw.lower() == "none":
            return None
        return float(raw)
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    return tuple(int(part) for part in raw.split(","))  # the one tuple field, conv_channels


def load_config(path, overrides: dict | None = None) -> TrainConfig:
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    values: dict = {}
    set_at: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_at:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is already set on line {set_at[key]}")
        set_at[key] = lineno
        values[key] = _parse_value(fields[key], raw)
    if overrides:
        values.update(overrides)
    cfg = TrainConfig(**values)
    cfg.validate()
    return cfg


def save_config(cfg: TrainConfig, path):
    lines = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif value is None:
            value = "none"
        lines.append(f"{f.name} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")
