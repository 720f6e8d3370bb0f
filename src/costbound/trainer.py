"""End-to-end training loop: warmup, interleaved collection and gradient
phases, periodic evaluation, metrics, and resumable checkpoints.

The schedule is: (1) fill the replay buffer with ``warmup_transitions``
wrapped steps of a unit-std truncated-Gaussian random policy; (2) train
the latent model alone for ``warmup_model_steps``; (3) alternate one
wrapped environment step (action from the actor on the online-filtered
latent state) with ``grad_steps_per_env_step`` gradient steps per base
step.
Episode terminations during the main phase update the Lagrange
multiplier with that episode's undiscounted cost return; evaluation
episodes run on a separate environment instance with the deterministic
policy and the mean-path latent filter, and never touch learned state.

``env_step`` counts base environment steps everywhere (one agent decision
advances it by the action-repeat factor). The run's position is
``env_step`` plus the model optimizer's step count, and everything else
follows from them: collection runs up to ``warmup_transitions *
action_repeat`` base steps, the model-only updates run until the model
optimizer has taken ``warmup_model_steps`` steps, the main phase (the
only phase with the filter live) holds every later decision, and a
decision evaluates once per multiple of ``eval_interval`` and checkpoints
at a multiple of ``checkpoint_interval`` that its advance crossed.

A checkpoint's header holds each fact of the run state once, as plain
JSON: the scalar fields below, the optimizer step counts, the Lagrange
multiplier, the generators' states, the HazardWorld state and the replay
buffer's meta. What follows from them is not stored: the warmup decisions
collected are ``env_step // action_repeat``, and the filter is live once
``env_step`` is past the warmup collection.

Memory stays bounded by the live state. A gradient lives from its
``backward`` to the optimizer step that uses it, and is released even when
the step is refused. ``save`` writes the replay ring from the ring itself
(its live records are at most two contiguous runs), and ``restore`` builds
the trainer from the header, checks it against the header's arrays, and
then reads each array straight into the live one that it fills, so
neither side ever holds a second copy of the ring or of the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .agent import (
    Actor,
    Critic,
    LagrangeState,
    TemperatureState,
    make_target,
    policy_loss,
    reward_critic_losses,
    safety_critic_loss,
)
from .autodiff import Tensor
from .checkpoint import CheckpointError, load_checkpoint, read_checkpoint_meta, save_checkpoint
from .config import TrainConfig
from .envs import ActionRepeat, HazardWorld, HazardWorldConfig
from .latent import LatentModel, LatentModelConfig, NonFiniteLossError, posterior_noise
from .optim import Adam, clip_grad_norm, ema_update
from .replay import ReplayBuffer

METRICS_HEADER = "step,reward_mean,cost_mean,lambda,alpha,model_loss,q1_loss,q2_loss,qc_loss,policy_loss"

# scalar run state that checkpoints carry in their JSON header as is
_STATE_FIELDS = ("env_step", "grad_accum", "ep_cost", "metrics_rows", "loss_sums", "loss_counts")


def build_env(cfg: TrainConfig, seed: int) -> ActionRepeat:
    base = HazardWorld(
        HazardWorldConfig(
            arena_size=cfg.arena_size,
            view_size=cfg.view_size,
            view_extent=cfg.view_extent,
            hazard_count=cfg.hazard_count,
            hazard_radius=cfg.hazard_radius,
            goal_radius=cfg.goal_radius,
            goal_bonus=cfg.goal_bonus,
            shaping_scale=cfg.shaping_scale,
            agent_speed=cfg.agent_speed,
            spawn_clearance=cfg.spawn_clearance,
            episode_limit=cfg.episode_limit * cfg.action_repeat,
            seed=seed,
        )
    )
    return ActionRepeat(base, cfg.action_repeat)


def truncated_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard Gaussian truncated to [-1, 1], by rejection."""
    out = rng.standard_normal(size)
    while True:
        bad = np.abs(out) > 1.0
        if not bad.any():
            return out
        out[bad] = rng.standard_normal(int(bad.sum()))


def normalized_metrics(run_rows: np.ndarray, reference_rows: np.ndarray, window: int = 5) -> dict:
    """Reward/cost of a run divided by an unconstrained reference run.

    Both inputs are metrics tables [N, >=3] with columns (step, reward,
    cost, ...). Uses the mean of the last ``window`` evaluation rows of
    each table; raises on a window below 1, on a table without rows and on
    a zero reference divisor.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if run_rows.ndim != 2 or reference_rows.ndim != 2:
        raise ValueError("metrics tables must be 2-D")
    if len(run_rows) == 0 or len(reference_rows) == 0:
        raise ValueError("metrics table has no evaluation rows")
    run_tail = run_rows[-window:]
    ref_tail = reference_rows[-window:]
    ref_reward = float(ref_tail[:, 1].mean())
    ref_cost = float(ref_tail[:, 2].mean())
    if ref_reward == 0.0 or ref_cost == 0.0:
        raise ZeroDivisionError("reference run has zero mean reward or cost")
    return {
        "normalized_reward": float(run_tail[:, 1].mean()) / ref_reward,
        "normalized_cost": float(run_tail[:, 2].mean()) / ref_cost,
        "window": int(min(window, len(run_rows), len(reference_rows))),
    }


def load_metrics(path) -> np.ndarray:
    """Read a metrics CSV back as a float table (may be empty)."""
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0] != METRICS_HEADER:
        raise ValueError(f"{path} is not a metrics file")
    if len(rows) == 1:
        return np.empty((0, len(METRICS_HEADER.split(","))))
    return np.array([[float(v) for v in row.split(",")] for row in rows[1:]])


class Trainer:
    """Building or restoring a trainer writes nothing: ``out_dir`` is made
    when ``run`` or a diagnostic abort first writes into it."""

    CHECKPOINT_STATE_VERSION = 5

    def __init__(self, cfg: TrainConfig, out_dir):
        cfg.validate()
        self.cfg = cfg
        self.out_dir = Path(out_dir)

        seq = np.random.SeedSequence(cfg.seed)
        children = seq.spawn(9)
        init_rng = np.random.default_rng(children[0])
        env_seed = int(children[1].generate_state(1)[0])
        self.rngs = {
            "warmup": np.random.default_rng(children[2]),
            "action": np.random.default_rng(children[3]),
            "filter": np.random.default_rng(children[4]),
            "model": np.random.default_rng(children[5]),
            "ac": np.random.default_rng(children[6]),
        }
        # evaluate draws its episode seeds from here: n episodes get n
        # distinct seeds, and the first ones do not depend on n
        self.eval_seed_sequence = children[7]

        self.env = build_env(cfg, env_seed)
        self.eval_env = build_env(cfg, env_seed)
        obs_shape = self.env.obs_shape
        self.action_dim = self.env.action_dim

        model_cfg = LatentModelConfig(
            obs_shape=obs_shape,
            action_dim=self.action_dim,
            z1_dim=cfg.z1_size,
            z2_dim=cfg.z2_size,
            feature_dim=cfg.feature_size,
            hidden_dim=cfg.model_hidden,
            conv_channels=cfg.conv_channels,
            recon_std=cfg.recon_std,
        )
        self.model = LatentModel(model_cfg, init_rng)
        state_dim = cfg.z1_size + cfg.z2_size
        hidden = (cfg.ac_hidden, cfg.ac_hidden)
        self.actor = Actor(state_dim, self.action_dim, hidden, init_rng)
        self.q1 = Critic(state_dim, self.action_dim, hidden, init_rng)
        self.q2 = Critic(state_dim, self.action_dim, hidden, init_rng)
        self.qc = Critic(state_dim, self.action_dim, hidden, init_rng)
        self.q1_target = make_target(self.q1)
        self.q2_target = make_target(self.q2)
        self.qc_target = make_target(self.qc)

        self.opt_model = Adam(self.model.parameters(), lr=cfg.model_lr)
        self.opt_actor = Adam(self.actor.parameters(), lr=cfg.ac_lr)
        self.opt_q1 = Adam(self.q1.parameters(), lr=cfg.ac_lr)
        self.opt_q2 = Adam(self.q2.parameters(), lr=cfg.ac_lr)
        self.opt_qc = Adam(self.qc.parameters(), lr=cfg.ac_lr)

        target_entropy = cfg.target_entropy
        if target_entropy is None:
            target_entropy = -float(self.action_dim)
        self.temperature = TemperatureState(cfg.init_alpha, target_entropy, lr=cfg.ac_lr)
        self.lagrange = LagrangeState(cfg.init_lambda, lr=cfg.lambda_lr, budget=cfg.cost_budget)

        self.buffer = ReplayBuffer(
            cfg.replay_capacity, obs_shape, self.action_dim, seed=int(children[8].generate_state(1)[0])
        )

        self.env_step = 0
        self.grad_accum = 0.0
        self.ep_cost = 0.0
        self.metrics_rows: list[str] = []
        self.loss_sums = {"model": 0.0, "q1": 0.0, "q2": 0.0, "qc": 0.0, "policy": 0.0}
        self.loss_counts = {"model": 0, "ac": 0}
        self.z1 = None
        self.z2 = None
        self.obs = self.env.reset(seed=env_seed)

    # -- paths -------------------------------------------------------------------

    @property
    def metrics_path(self) -> Path:
        return self.out_dir / "metrics.csv"

    @property
    def final_checkpoint_path(self) -> Path:
        return self.out_dir / "final.ckpt"

    # -- main loop ----------------------------------------------------------------

    def run(self) -> Path:
        """Train to ``total_env_steps``; returns the final checkpoint path."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._write_manifest()
        self._flush_metrics()
        cfg = self.cfg
        while self.env_step < min(cfg.total_env_steps, cfg.warmup_transitions * cfg.action_repeat):
            action = truncated_normal(self.rngs["warmup"], self.action_dim)
            self._collect(action)
            self._maybe_checkpoint()
        if self.z1 is None and self.env_step < cfg.total_env_steps:
            while self.opt_model.step_count < cfg.warmup_model_steps and self._has_data():
                self._model_update()
            # the main phase starts a fresh episode, with the filter live;
            # evaluation points crossed during warmup are skipped
            self.buffer.end_episode()
            self.ep_cost = 0.0
            self.obs = self.env.reset()
            self._filter_reset()
        while self.env_step < cfg.total_env_steps:
            self._collect(self._policy_action())
            self.grad_accum += cfg.action_repeat * cfg.grad_steps_per_env_step
            while self.grad_accum >= 1.0:
                self.grad_accum -= 1.0
                self._gradient_step()
            for _ in range(self._crossed(cfg.eval_interval)):
                self._record_metrics(*self.evaluate())
            self._maybe_checkpoint()
        self._flush_metrics()
        self.save(self.final_checkpoint_path)
        return self.final_checkpoint_path

    def _has_data(self) -> bool:
        return self.buffer.num_windows(self.cfg.sequence_length) > 0

    def _crossed(self, interval: int) -> int:
        """Multiples of ``interval`` that the last decision's advance crossed."""
        return self.env_step // interval - (self.env_step - self.cfg.action_repeat) // interval

    # -- collection ------------------------------------------------------------------

    def _collect(self, action: np.ndarray):
        """One decision; the filter follows it once it is live."""
        live = self.z1 is not None
        result = self.env.step(action)
        # exact: build_env makes every episode a whole number of decisions,
        # so ActionRepeat never stops early here (perfbench's
        # checks.schedule counts base steps the same way)
        self.env_step += self.cfg.action_repeat
        self.buffer.append(self.obs, action, result.reward, result.cost, result.done)
        self.ep_cost += result.cost
        if result.done:
            if live:
                self.lagrange.update(self.ep_cost)
            self.ep_cost = 0.0
            self.obs = self.env.reset()
            if live:
                self._filter_reset()
        else:
            if live:
                self._filter_update(action, result.observation)
            self.obs = result.observation

    def _filter_reset(self):
        cfg = self.model.cfg
        eps1 = self.rngs["filter"].standard_normal(cfg.z1_dim)
        eps2 = self.rngs["filter"].standard_normal(cfg.z2_dim)
        self.z1, self.z2 = self.model.filter_init(self.obs, eps1, eps2)

    def _filter_update(self, action: np.ndarray, new_obs: np.ndarray):
        cfg = self.model.cfg
        eps1 = self.rngs["filter"].standard_normal(cfg.z1_dim)
        eps2 = self.rngs["filter"].standard_normal(cfg.z2_dim)
        self.z1, self.z2 = self.model.filter_step((self.z1, self.z2), action, new_obs, eps1, eps2)

    def _policy_action(self) -> np.ndarray:
        state = np.concatenate([self.z1, self.z2])[None]
        noise = self.rngs["action"].standard_normal((1, self.action_dim))
        with ad.no_grad():
            action, _ = self.actor.sample(Tensor(state), noise)
        return action.data[0].copy()

    # -- gradient steps -----------------------------------------------------------------

    def _model_update(self) -> float:
        cfg = self.cfg
        batch = self.buffer.sample_sequences(cfg.model_batch, cfg.sequence_length)
        noise = posterior_noise(self.rngs["model"], cfg.model_batch, cfg.sequence_length + 1, self.model.cfg)
        try:
            loss, _ = self.model.model_loss(batch, noise)
        except NonFiniteLossError:
            self._diagnostic_abort()
            raise
        # the frames live on as the encoder's input on the tape, freed once
        # conv1's vjp has run; this frees only the per-step arrays
        del batch
        self._apply(self.opt_model, loss)
        value = loss.item()
        self.loss_sums["model"] += value
        self.loss_counts["model"] += 1
        return value

    def _gradient_step(self):
        if not self._has_data():
            return
        cfg = self.cfg
        length = cfg.sequence_length
        batch = self.buffer.sample_sequences(cfg.ac_batch, length)
        noise = posterior_noise(self.rngs["ac"], cfg.ac_batch, length + 1, self.model.cfg)
        with ad.no_grad():
            inf = self.model.infer_posterior(batch.observations, batch.actions, noise)
            z_tau = inf.states[length - 1].data
            z_next = inf.states[length].data
        a_tau = batch.actions[:, length - 1]
        r_tau = batch.rewards[:, length - 1]
        c_tau = batch.costs[:, length - 1]
        del batch, inf  # the frames are not held through the model update
        alpha = self.temperature.alpha
        lam = self.lagrange.lam
        draw = lambda: self.rngs["ac"].standard_normal((cfg.ac_batch, self.action_dim))

        l1, l2 = reward_critic_losses(
            self.q1, self.q2, self.q1_target, self.q2_target, self.actor,
            alpha, z_tau, a_tau, r_tau, z_next, cfg.gamma, draw(),
        )
        self._apply(self.opt_q1, l1)
        self._apply(self.opt_q2, l2)

        self._model_update()

        pi_loss, logp = policy_loss(
            self.actor, self.q1, self.q2, self.qc, alpha, lam, z_next, draw()
        )
        self._apply(self.opt_actor, pi_loss)

        lc = safety_critic_loss(
            self.qc, self.qc_target, self.actor, z_tau, a_tau, c_tau, z_next,
            cfg.cost_gamma, draw(),
        )
        self._apply(self.opt_qc, lc)

        self.temperature.update(logp.data)

        nu = cfg.target_ema
        ema_update(self.q1_target.parameters(), self.q1.parameters(), nu)
        ema_update(self.q2_target.parameters(), self.q2.parameters(), nu)
        ema_update(self.qc_target.parameters(), self.qc.parameters(), nu)

        for key, loss in (("q1", l1), ("q2", l2), ("qc", lc), ("policy", pi_loss)):
            self.loss_sums[key] += loss.item()
        self.loss_counts["ac"] += 1

    def _apply(self, opt: Adam, loss: Tensor):
        """One clipped optimizer step on ``loss``. A non-finite loss or
        gradient norm writes the diagnostic checkpoint and raises before
        the step, so no NaN reaches the parameters or moments. Either way
        the gradients are released here, so none is held between steps."""
        try:
            ad.backward(loss)
            norm = clip_grad_norm(opt.params, self.cfg.grad_clip)
            if not (np.isfinite(loss.data) and np.isfinite(norm)):
                self._diagnostic_abort()
                raise NonFiniteLossError(f"non-finite loss {loss.item()!r} or gradient norm {norm!r}")
            opt.step()
        finally:
            opt.zero_grad()

    def _diagnostic_abort(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.save(self.out_dir / "diagnostic.ckpt")

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, episodes: int | None = None):
        """Mean undiscounted reward and cost returns of the deterministic
        policy over evaluation episodes; touches no learned or collected
        state."""
        episodes = self.cfg.eval_episodes if episodes is None else episodes
        if episodes < 1:
            raise ValueError(f"episodes must be at least 1, got {episodes}")
        seeds = self.eval_seed_sequence.generate_state(episodes).tolist()
        cfg = self.model.cfg
        zero1 = np.zeros(cfg.z1_dim)
        zero2 = np.zeros(cfg.z2_dim)
        rewards = np.zeros(episodes)
        costs = np.zeros(episodes)
        for ep, seed in enumerate(seeds):
            obs = self.eval_env.reset(seed=seed)
            z = self.model.filter_init(obs, zero1, zero2)
            done = False
            while not done:
                state = np.concatenate([z[0], z[1]])[None]
                with ad.no_grad():
                    action = self.actor.mode(Tensor(state)).data[0]
                result = self.eval_env.step(action)
                rewards[ep] += result.reward
                costs[ep] += result.cost
                done = result.done
                if not done:
                    z = self.model.filter_step(z, action, result.observation, zero1, zero2)
        return float(rewards.mean()), float(costs.mean())

    def _record_metrics(self, reward_mean: float, cost_mean: float):
        def mean_of(key, count_key):
            count = self.loss_counts[count_key]
            return self.loss_sums[key] / count if count else float("nan")

        values = [
            reward_mean,
            cost_mean,
            self.lagrange.lam,
            self.temperature.alpha,
            mean_of("model", "model"),
            mean_of("q1", "ac"),
            mean_of("q2", "ac"),
            mean_of("qc", "ac"),
            mean_of("policy", "ac"),
        ]
        row = ",".join([str(self.env_step)] + [repr(float(v)) for v in values])
        self.metrics_rows.append(row)
        self.loss_sums = {k: 0.0 for k in self.loss_sums}
        self.loss_counts = {k: 0 for k in self.loss_counts}
        self._flush_metrics()

    def _flush_metrics(self):
        text = "\n".join([METRICS_HEADER] + self.metrics_rows) + "\n"
        self.metrics_path.write_text(text)

    def _write_manifest(self):
        from . import __version__

        manifest = {
            "config": self.cfg.to_dict(),
            "seed": self.cfg.seed,
            "package_version": __version__,
            "metrics_header": METRICS_HEADER,
        }
        (self.out_dir / "run_manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )

    # -- checkpointing -----------------------------------------------------------------

    def _maybe_checkpoint(self):
        interval = self.cfg.checkpoint_interval
        if interval and self._crossed(interval):
            self.save(self.out_dir / f"step_{self.env_step}.ckpt")

    def _optimizers(self) -> dict:
        return {
            "model": self.opt_model,
            "actor": self.opt_actor,
            "q1": self.opt_q1,
            "q2": self.opt_q2,
            "qc": self.opt_qc,
            "alpha": self.temperature.optimizer,
        }

    def _arrays(self) -> dict:
        """Every checkpoint array but the replay buffer's, by name, as the
        live ndarray that holds it: ``save`` writes these and ``restore``
        reads into them."""
        arrays = {}
        for group in ("model", "actor", "q1", "q2", "qc", "q1_target", "q2_target", "qc_target"):
            for i, p in enumerate(getattr(self, group).parameters()):
                arrays[f"params/{group}/{i:03d}"] = p.data
        for name, opt in self._optimizers().items():
            for i, arr in enumerate(opt.state_arrays()):
                arrays[f"opt/{name}/{i:03d}"] = arr
        arrays["log_alpha"] = self.temperature.log_alpha.data
        arrays["state/obs"] = self.obs
        if self.z1 is not None:
            arrays["state/z1"] = self.z1
            arrays["state/z2"] = self.z2
        return arrays

    def save(self, path) -> Path:
        arrays = self._arrays()
        buffer_meta, ring = self.buffer.runs()
        arrays.update({f"buffer/{name}": pieces for name, pieces in ring.items()})
        meta = {name: getattr(self, name) for name in _STATE_FIELDS}
        meta.update({
            "state_version": self.CHECKPOINT_STATE_VERSION,
            "config": self.cfg.to_dict(),
            "lagrange_lam": self.lagrange.lam,
            "opt_steps": {name: opt.step_count for name, opt in self._optimizers().items()},
            "rngs": {name: rng.bit_generator.state for name, rng in self.rngs.items()},
            "env_state": self.env.env.get_state(),
            "buffer_meta": buffer_meta,
        })
        save_checkpoint(path, meta, arrays)
        return Path(path)

    # A header is checksummed only once the payload after it has been read,
    # so until then a header that does not describe a trainer is a bad file.

    @classmethod
    def _config_of(cls, meta: dict) -> TrainConfig:
        if meta.get("state_version") != cls.CHECKPOINT_STATE_VERSION:
            raise CheckpointError(f"unsupported trainer state version {meta.get('state_version')}")
        try:
            return TrainConfig.from_dict(meta["config"])
        except (KeyError, TypeError, ValueError) as err:
            raise CheckpointError(f"the checkpoint's config is not a TrainConfig: {err!r}") from err

    @classmethod
    def checkpoint_config(cls, path) -> TrainConfig:
        """The config of the run that wrote ``path``, from the header alone:
        no array is read, and the file is not checksummed."""
        return cls._config_of(read_checkpoint_meta(path))

    @classmethod
    def restore(cls, path, out_dir) -> "Trainer":
        """A trainer built from the checkpoint's header, with every array of
        the checkpoint read straight into the one that it constructed. The
        trainer is checked against the header's arrays before any of them
        is read, and handed back only once the digest matches."""
        # one open file, so the header that built the trainer is the one read
        with open(path, "rb") as fh:
            meta = read_checkpoint_meta(fh)
            cfg = cls._config_of(meta)
            try:
                trainer = cls(cfg, out_dir)
                if meta["env_step"] > cfg.warmup_transitions * cfg.action_repeat:  # the main phase
                    trainer.z1, trainer.z2 = np.empty(cfg.z1_size), np.empty(cfg.z2_size)
                table = trainer._arrays()
                ring = trainer.buffer.load_state(meta["buffer_meta"])
            except (KeyError, TypeError, ValueError) as err:
                raise CheckpointError(f"the checkpoint's header does not describe a trainer: {err!r}") from err
            table.update({f"buffer/{name}": rows for name, rows in ring.items()})
            load_checkpoint(fh, table)
        for name, opt in trainer._optimizers().items():
            opt.step_count = meta["opt_steps"][name]
        trainer.lagrange.lam = meta["lagrange_lam"]
        for name, rng in trainer.rngs.items():
            rng.bit_generator.state = meta["rngs"][name]
        trainer.env.env.set_state(meta["env_state"])
        for name in _STATE_FIELDS:
            setattr(trainer, name, meta[name])
        return trainer
