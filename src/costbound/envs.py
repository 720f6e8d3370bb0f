"""Desk-scale constrained environments with pixel observations.

HazardWorld is a continuous 2-D arena. The agent moves with velocity
actions, earns dense reward for closing the distance to a goal disc (plus
a bonus on contact, after which the goal relocates), and incurs a binary
cost on every base step spent overlapping a hazard disc. Observations are
egocentric: a window of the arena centered on the agent, rendered into
three binary channels (goal, hazards, walls), so anything outside the
window is invisible and the task is genuinely partially observable.

ActionRepeat executes each agent decision K times on the base environment
and sums the rewards and costs it collects.

TabularChainEnv wraps a TabularCMDP behind the same step interface with a
single-pixel observation, as a fixture for value-iteration cross-checks.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .oracle import TabularCMDP


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    cost: float
    done: bool


@dataclass
class HazardWorldConfig:
    arena_size: float = 10.0
    view_size: int = 16          # pixels per side
    view_extent: float = 8.0     # world units covered by the view window
    hazard_count: int = 5
    hazard_radius: float = 1.0
    goal_radius: float = 0.8
    goal_bonus: float = 1.0
    shaping_scale: float = 1.0
    agent_speed: float = 0.5     # world units per base step at |action|=1
    spawn_clearance: float = 1.5
    episode_limit: int = 200     # base steps
    seed: int = 0

    def __post_init__(self):
        if self.view_size % 4 != 0:
            raise ValueError("view_size must be divisible by 4 for the conv encoder")
        if self.hazard_count < 0 or self.episode_limit < 1:
            raise ValueError("bad hazard_count or episode_limit")


class HazardWorld:
    """Kinematic 2-D arena with separate reward and safety signals."""

    action_dim = 2

    def __init__(self, config: HazardWorldConfig):
        self.cfg = config
        self.obs_shape = (3, config.view_size, config.view_size)
        self._rng = np.random.default_rng(config.seed)
        self._spawn = np.array([config.arena_size / 2.0, config.arena_size / 2.0])
        px = (np.arange(config.view_size) + 0.5) / config.view_size - 0.5
        self._px_offsets = px * config.view_extent  # pixel-center offsets from agent
        self._done = True
        self._steps = 0
        self.reset(seed=config.seed)

    # -- layout sampling -------------------------------------------------------

    def _sample_point(self, clearance_from, min_dist, margin: float) -> np.ndarray:
        size = self.cfg.arena_size
        for _ in range(10_000):
            p = self._rng.uniform(margin, size - margin, size=2)
            if all(np.linalg.norm(p - q) >= d for q, d in zip(clearance_from, min_dist)):
                return p
        raise RuntimeError("could not place layout element; arena too crowded")

    def _sample_goal(self) -> np.ndarray:
        cfg = self.cfg
        anchors = [self._spawn] + list(self._hazards)
        dists = [cfg.spawn_clearance + cfg.goal_radius] + [
            cfg.hazard_radius + cfg.goal_radius
        ] * len(self._hazards)
        return self._sample_point(anchors, dists, margin=cfg.goal_radius)

    def reset(self, seed: int | None = None) -> np.ndarray:
        cfg = self.cfg
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._hazards = []
        for _ in range(cfg.hazard_count):
            self._hazards.append(
                self._sample_point(
                    [self._spawn], [cfg.spawn_clearance + cfg.hazard_radius], margin=0.0
                )
            )
        self._goal = self._sample_goal()
        self._pos = self._spawn.copy()
        self._goal_dist = float(np.linalg.norm(self._pos - self._goal))
        self._steps = 0
        self._done = False
        return self._observe()

    # -- dynamics ---------------------------------------------------------------

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset() first")
        cfg = self.cfg
        action = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
        if action.shape != (2,):
            raise ValueError(f"action shape {action.shape} != (2,)")
        self._pos = np.clip(self._pos + action * cfg.agent_speed, 0.0, cfg.arena_size)
        cost = 1.0 if self._in_hazard() else 0.0
        new_dist = float(np.linalg.norm(self._pos - self._goal))
        reward = cfg.shaping_scale * (self._goal_dist - new_dist)
        if new_dist <= cfg.goal_radius:
            reward += cfg.goal_bonus
            self._goal = self._sample_goal()
            new_dist = float(np.linalg.norm(self._pos - self._goal))
        self._goal_dist = new_dist
        self._steps += 1
        self._done = self._steps >= cfg.episode_limit
        return StepResult(self._observe(), reward, cost, self._done)

    def _in_hazard(self) -> bool:
        return any(
            np.linalg.norm(self._pos - h) < self.cfg.hazard_radius for h in self._hazards
        )

    # -- rendering ----------------------------------------------------------------

    def render_uint8(self) -> np.ndarray:
        """Egocentric view as [3, H, W] uint8 (channels: goal, hazards, walls)."""
        cfg = self.cfg
        xs = self._pos[0] + self._px_offsets  # [W]
        ys = self._pos[1] + self._px_offsets  # [H]
        gx, gy = np.meshgrid(xs, ys)
        img = np.zeros((3, cfg.view_size, cfg.view_size), dtype=np.uint8)
        d2_goal = (gx - self._goal[0]) ** 2 + (gy - self._goal[1]) ** 2
        img[0][d2_goal <= cfg.goal_radius**2] = 255
        for h in self._hazards:
            d2 = (gx - h[0]) ** 2 + (gy - h[1]) ** 2
            img[1][d2 <= cfg.hazard_radius**2] = 255
        outside = (gx < 0) | (gx > cfg.arena_size) | (gy < 0) | (gy > cfg.arena_size)
        img[2][outside] = 255
        return img

    def _observe(self) -> np.ndarray:
        return self.render_uint8().astype(np.float64) / 255.0

    # -- explicit state (checkpointing) ---------------------------------------------

    def get_state(self) -> dict:
        """Plain JSON values; ``set_state`` takes them back."""
        return {
            "pos": self._pos.tolist(),
            "goal": self._goal.tolist(),
            "hazards": np.array(self._hazards).reshape(-1, 2).tolist(),
            "goal_dist": self._goal_dist,
            "steps": self._steps,
            "done": self._done,
            "rng": self._rng.bit_generator.state,
        }

    def set_state(self, state: dict):
        self._pos = np.array(state["pos"], dtype=np.float64)
        self._goal = np.array(state["goal"], dtype=np.float64)
        self._hazards = [h.astype(np.float64) for h in np.asarray(state["hazards"]).reshape(-1, 2)]
        self._goal_dist = float(state["goal_dist"])
        self._steps = int(state["steps"])
        self._done = bool(state["done"])
        self._rng.bit_generator.state = state["rng"]


class ActionRepeat:
    """Execute each action K times on the base env, summing reward and cost."""

    def __init__(self, env, repeat: int):
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        self.env = env
        self.repeat = repeat

    @property
    def obs_shape(self):
        return self.env.obs_shape

    @property
    def action_dim(self):
        return self.env.action_dim

    def reset(self, seed: int | None = None):
        return self.env.reset(seed=seed)

    def step(self, action) -> StepResult:
        total_reward = 0.0
        total_cost = 0.0
        result = None
        for _ in range(self.repeat):
            result = self.env.step(action)
            total_reward += result.reward
            total_cost += result.cost
            if result.done:
                break
        return StepResult(result.observation, total_reward, total_cost, result.done)


@dataclass
class ChainEnvConfig:
    cmdp: TabularCMDP
    episode_limit: int = 50
    seed: int = 0


class TabularChainEnv:
    """Env facade over a TabularCMDP; observation is one pixel encoding the state.

    ``step`` runs on Python scalars: the tables are lists and each state's
    observation is built once. The next state is drawn as
    ``bisect_right(cdf, rng.random())`` on the transition row's cumulative
    sum divided by its last entry. That is how ``Generator.choice(p=row)``
    draws (one ``random()`` per call, then ``searchsorted(side="right")`` on
    the same normalised cumulative sum), so the state stream and the
    generator state match ``choice`` draw for draw.
    """

    def __init__(self, config: ChainEnvConfig):
        m = config.cmdp
        if m.num_states > 10:
            raise ValueError("tabular env supports at most 10 states")
        self.cfg = config
        self.cmdp = m
        self.obs_shape = (1, 1, 1)
        self.action_dim = 1  # actions are integers in [0, num_actions)
        self._rng = np.random.default_rng(config.seed)
        cdf = np.cumsum(m.transitions, axis=2)
        self._cdf = (cdf / cdf[..., -1:]).tolist()
        self._rewards = m.rewards.tolist()
        self._costs = m.costs.tolist()
        self._num_actions = m.num_actions
        denom = max(m.num_states - 1, 1)
        self._obs = [np.array([[[s / denom]]], dtype=np.float64) for s in range(m.num_states)]
        self._state = m.initial_state
        self._steps = 0
        self._done = True

    def _observe(self) -> np.ndarray:
        return self._obs[self._state].copy()

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._state = self.cmdp.initial_state
        self._steps = 0
        self._done = False
        return self._observe()

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset() first")
        a = int(action)
        if not 0 <= a < self._num_actions:
            raise ValueError(f"action {a} out of range")
        s = self._state
        self._state = bisect.bisect_right(self._cdf[s][a], self._rng.random())
        self._steps += 1
        self._done = self._steps >= self.cfg.episode_limit
        return StepResult(self._observe(), self._rewards[s][a], self._costs[s][a], self._done)
