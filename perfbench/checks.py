"""Reference computations the benchmark checks the program against.

Each helper recomputes a result from the program's outputs by a route of
its own: the checkpoint layout is parsed from the bytes, frames are drawn by
a separate rasterizer, the Lagrange multiplier is replayed from the stored
cost records, step counts come from the schedule arithmetic, and gradients
from central differences.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"CBCKPT\x00\x01"
CHECKPOINT_DTYPES = {"f8": np.float64, "u1": np.uint8, "i8": np.int64, "b1": np.bool_}
GRADCHECK_TOLERANCE = 1e-4


class CheckFailure(AssertionError):
    pass


def require(ok, message: str):
    if not ok:
        raise CheckFailure(message)


# -- checkpoint file ---------------------------------------------------------


def read_checkpoint(path):
    """Parse a checkpoint file from its bytes and verify its framing.

    The file is magic, a little-endian u32 version and u64 header length, a
    JSON header, the arrays at the offsets the header lists, and a SHA-256
    of everything before the digest. Returns (meta, arrays).
    """
    data = Path(path).read_bytes()
    require(data[: len(CHECKPOINT_MAGIC)] == CHECKPOINT_MAGIC, f"{path}: bad magic")
    _, header_len = struct.unpack_from("<IQ", data, len(CHECKPOINT_MAGIC))
    header_start = len(CHECKPOINT_MAGIC) + 12
    header = json.loads(data[header_start : header_start + header_len])
    payload_start = header_start + header_len
    arrays, payload_bytes = {}, 0
    for entry in header["arrays"]:
        dtype = np.dtype(CHECKPOINT_DTYPES[entry["dtype"]])
        count = math.prod(entry["shape"])
        require(entry["offset"] == payload_bytes, f"{path}: array {entry['name']} is not packed")
        arrays[entry["name"]] = np.frombuffer(
            data, dtype=dtype, count=count, offset=payload_start + entry["offset"]
        ).reshape(entry["shape"])
        payload_bytes += count * dtype.itemsize
    require(
        len(data) == header_start + header_len + payload_bytes + 32,
        f"{path}: length {len(data)} != magic + 12 + header + arrays + 32",
    )
    require(hashlib.sha256(data[:-32]).digest() == data[-32:], f"{path}: SHA-256 mismatch")
    return header["meta"], arrays


# -- rendering ---------------------------------------------------------------


def rasterize(state: dict, cfg) -> np.ndarray:
    """Egocentric [3, V, V] uint8 frame from a HazardWorld state: a goal
    disc, hazard discs, and everything beyond the arena walls."""
    offsets = ((np.arange(cfg.view_size) + 0.5) / cfg.view_size - 0.5) * cfg.view_extent
    x = (state["pos"][0] + offsets)[None, :]
    y = (state["pos"][1] + offsets)[:, None]

    def disc(center, radius):
        return (x - center[0]) ** 2 + (y - center[1]) ** 2 <= radius**2

    hazards = np.zeros((cfg.view_size, cfg.view_size), dtype=bool)
    for h in np.asarray(state["hazards"]).reshape(-1, 2):
        hazards |= disc(h, cfg.hazard_radius)
    walls = (x < 0) | (x > cfg.arena_size) | (y < 0) | (y > cfg.arena_size)
    return np.stack([disc(state["goal"], cfg.goal_radius), hazards, walls]).astype(np.uint8) * 255


# -- dual ascent ---------------------------------------------------------------


def episode_cost_returns(costs: np.ndarray, dones: np.ndarray, first: int) -> list:
    """Cost returns of the episodes that start at record ``first`` or later
    and end with a terminal flag, summed record by record."""
    returns, total = [], 0.0
    for cost, done in zip(costs[first:], dones[first:]):
        total += float(cost)
        if done:
            returns.append(total)
            total = 0.0
    return returns


def replay_lambda(init: float, lr: float, budget: float, cost_returns) -> float:
    lam = float(init)
    for c in cost_returns:
        lam = max(0.0, lam + lr * (c - budget))
    return lam


# -- schedule ----------------------------------------------------------------


@dataclass
class Schedule:
    """Work a training run does, from the trainer's schedule rules."""

    collect_decisions: int
    model_only_steps: int
    main_decisions: int
    grad_steps: int
    evaluations: int
    eval_decisions: int
    end_env_step: int


def schedule(cfg, total_env_steps: int | None = None) -> Schedule:
    """Replay the schedule of ``cfg`` up to ``total_env_steps`` base steps.

    Every agent decision advances ``action_repeat`` base steps, since an
    episode is a whole number of decisions. Warmup collects until it holds
    ``warmup_transitions`` decisions, the model then trains alone, and each
    main-phase decision adds ``action_repeat * grad_steps_per_env_step`` to
    an accumulator that pays out whole gradient steps. Evaluations fall on
    the first multiples of ``eval_interval`` past the warmup.
    """
    total = cfg.total_env_steps if total_env_steps is None else total_env_steps
    repeat = cfg.action_repeat
    collect = min(cfg.warmup_transitions, -(-total // repeat))
    env_step = collect * repeat
    model_only = cfg.warmup_model_steps if env_step < total else 0
    decisions = max(0, -(-(total - env_step) // repeat))
    accum, grad_steps = 0.0, 0
    for _ in range(decisions):
        accum += repeat * cfg.grad_steps_per_env_step
        while accum >= 1.0:
            accum -= 1.0
            grad_steps += 1
    end = env_step + decisions * repeat
    first_eval = (env_step // cfg.eval_interval + 1) * cfg.eval_interval
    evaluations = max(0, (end - first_eval) // cfg.eval_interval + 1) if decisions else 0
    return Schedule(
        collect_decisions=collect,
        model_only_steps=model_only,
        main_decisions=decisions,
        grad_steps=grad_steps,
        evaluations=evaluations,
        eval_decisions=evaluations * cfg.eval_episodes * cfg.episode_limit,
        end_env_step=end,
    )


def projected_hours(plan: Schedule, collect_s: float, model_only_s: float, decision_s: float,
                    eval_decision_s: float) -> float:
    """Wall-clock hours of a whole run, from seconds per unit of each phase.

    ``decision_s`` is one main-phase decision with its gradient steps.
    """
    seconds = (
        plan.collect_decisions * collect_s
        + plan.model_only_steps * model_only_s
        + plan.main_decisions * decision_s
        + plan.eval_decisions * eval_decision_s
    )
    return seconds / 3600.0


# -- gradients -----------------------------------------------------------------


def model_gradcheck(model, batch, noise, backward, coordinates: int = 8, h: float = 1e-6) -> float:
    """L2 relative error between ``model_loss``'s backward gradient and
    central differences, on the largest-gradient coordinate of
    ``coordinates`` parameter tensors spread over the model."""
    params = model.parameters()
    for p in params:
        p.grad = None
    loss, _ = model.model_loss(batch, noise)
    backward(loss)
    picks = np.unique(np.linspace(0, len(params) - 1, coordinates).round().astype(int))
    analytic, numeric = [], []
    for i in picks:
        p = params[i]
        idx = np.unravel_index(int(np.argmax(np.abs(p.grad))), p.grad.shape)
        analytic.append(float(p.grad[idx]))
        base = float(p.data[idx])
        values = []
        for x in (base + h, base - h):
            p.data[idx] = x
            values.append(model.model_loss(batch, noise)[0].item())
        p.data[idx] = base
        numeric.append((values[0] - values[1]) / (2.0 * h))
    for p in params:
        p.grad = None
    analytic, numeric = np.array(analytic), np.array(numeric)
    return float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12))


def sample_windows(obs, act, rew, cost, done, lengths, batch: int, length: int, rng):
    """``batch`` windows of ``length`` transitions from stored records,
    each inside one episode; observations decoded from uint8 as the buffer
    does."""
    starts, offset = [], 0
    for n in lengths:
        starts.extend(range(offset, offset + n - length))
        offset += n
    picks = rng.choice(np.array(starts), size=batch, replace=False)
    take = lambda a, span: np.stack([a[s : s + span] for s in picks])
    return (
        take(obs, length + 1).astype(np.float64) / 255.0,
        take(act, length),
        take(rew, length),
        take(cost, length),
        take(done, length),
    )
