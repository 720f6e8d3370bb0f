"""Episode-aware replay storage and contiguous sequence-window sampling.

Each stored record is (x_t, a_t, r_t, c_t, done_t): the observation at
which the action was taken and the aggregated signals of that step. A
sampled window of ``length`` transitions spans ``length + 1`` consecutive
records of one episode: observations come from all of them, actions,
rewards and costs from the first ``length``. Windows therefore never
cross an episode boundary, and the action at position t in a window is
the one executed between observations t and t+1.

Records live in one ring of five flat arrays of ``capacity`` rows,
allocated once: a running record counter ``n`` is stored at row
``n % capacity``, and a list of episode start counters marks the live
episodes, the last being the one currently being written. Frames are
8-bit pixels: ``append`` accepts only observations that are exact
multiples of 1/255 in [0, 1], stores them as uint8 and sampling decodes
them back to the same float64 values.

When the ring is full, the oldest whole episode is dropped before the
next record is written; the episode currently being written is never
evicted, so it must fit in ``capacity`` records.

``runs`` and ``load_state`` carry the buffer through a checkpoint: a
plain-JSON meta (episode lengths, open flag, the PCG64 state of the
sampling generator as numpy reports it) and the five record arrays. The
live records are at most two contiguous runs of the ring, so ``runs``
hands out each array as those runs, read-only views in time order, and a
checkpoint writes them without a copy; ``load_state`` applies the meta
and returns the ring's first rows, which the reader fills in place.
``state`` is the same meta with each array joined into a copy of its own,
for a caller that keeps or compares it: it never aliases the ring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SequenceBatch:
    """One sampled batch of windows, batch-major. ``observations`` is a view
    of time-major memory: its ``[L+1, B, ...]`` transpose is C-contiguous,
    so the latent model reads the frames time-major without a copy."""

    observations: np.ndarray  # [B, L+1, *obs_shape], float64
    actions: np.ndarray       # [B, L, action_dim]
    rewards: np.ndarray       # [B, L]
    costs: np.ndarray         # [B, L]
    dones: np.ndarray         # [B, L], bool


class ReplayBuffer:
    def __init__(self, capacity: int, obs_shape, action_dim: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.obs_shape = tuple(obs_shape)
        self.action_dim = int(action_dim)
        self._rng = np.random.default_rng(seed)
        # np.empty leaves rows that are never written untouched in memory
        self._records = {
            "obs": np.empty((self.capacity, *self.obs_shape), dtype=np.uint8),
            "act": np.empty((self.capacity, self.action_dim), dtype=np.float64),
            "rew": np.empty(self.capacity, dtype=np.float64),
            "cost": np.empty(self.capacity, dtype=np.float64),
            "done": np.empty(self.capacity, dtype=bool),
        }
        self._count = 0       # records ever written
        self._starts = [0]    # start counter of each live episode; the last is open

    # -- writing -------------------------------------------------------------

    def append(self, obs, action, reward: float, cost: float, done: bool):
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape != self.obs_shape:
            raise ValueError(f"observation shape {obs.shape} != {self.obs_shape}")
        pixels = np.rint(obs * 255.0)
        if not ((pixels / 255.0 == obs) & (pixels >= 0.0) & (pixels <= 255.0)).all():
            raise ValueError("observation is not an 8-bit frame (multiples of 1/255 in [0, 1])")
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.action_dim,):
            raise ValueError(f"action shape {action.shape} != ({self.action_dim},)")
        if len(self) == self.capacity:
            if len(self._starts) == 1:
                raise ValueError(f"the open episode cannot hold more than {self.capacity} records")
            self._starts.pop(0)
        row = self._count % self.capacity
        rec = self._records
        rec["obs"][row] = pixels
        rec["act"][row] = action
        rec["rew"][row] = reward
        rec["cost"][row] = cost
        rec["done"][row] = done
        self._count += 1
        if done:
            self._starts.append(self._count)

    def end_episode(self):
        """Close the in-progress episode without a terminal flag.

        Used at phase boundaries where collection restarts from a fresh
        reset; the stored transitions stay valid, later windows simply
        cannot span the cut.
        """
        if self._starts[-1] < self._count:
            self._starts.append(self._count)

    # -- sizes ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._count - self._starts[0]

    @property
    def num_episodes(self) -> int:
        return len(self._starts) - (self._starts[-1] == self._count)

    def _window_counts(self, length: int):
        """(start counter, number of windows) of each live episode."""
        edges = np.array(self._starts + [self._count])
        return edges[:-1], np.maximum(np.diff(edges) - length, 0)

    def num_windows(self, length: int) -> int:
        return int(self._window_counts(length)[1].sum())

    # -- sampling ------------------------------------------------------------

    def sample_sequences(self, batch_size: int, length: int) -> SequenceBatch:
        """Uniform over all valid (episode, start) window positions.

        The frames are gathered time-major, decoded to float64 in place,
        and handed out as the ``[B, L+1, ...]`` view of that one array."""
        if length < 1:
            raise ValueError("length must be >= 1")
        starts, counts = self._window_counts(length)
        total = int(counts.sum())
        if total == 0:
            raise ValueError(
                f"insufficient data: no episode holds {length + 1} or more transitions"
            )
        prefix = np.cumsum(counts)
        draws = self._rng.integers(0, total, size=batch_size)
        episode = np.searchsorted(prefix, draws, side="right")
        first = starts[episode] + draws - (prefix[episode] - counts[episode])
        rows = (first[:, None] + np.arange(length + 1)) % self.capacity
        steps = rows[:, :-1]
        rec = self._records
        frames = rec["obs"][rows.T].astype(np.float64)  # time-major [L+1, B, *obs_shape]
        frames /= 255.0
        return SequenceBatch(
            frames.swapaxes(0, 1),
            rec["act"][steps],
            rec["rew"][steps],
            rec["cost"][steps],
            rec["done"][steps],
        )

    # -- serialization (documented layout, used by checkpoints) ----------------

    def runs(self):
        """(meta, arrays): the JSON meta holds the live episode lengths, the
        open flag and the sampling generator's state; each array is a list
        of at most two read-only views of the ring that hold the live
        records in chronological order. They are valid until the next
        ``append``."""
        lengths = np.diff(self._starts + [self._count]).tolist()
        is_open = lengths[-1] > 0
        if not is_open:
            lengths.pop()
        meta = {"lengths": lengths, "open": is_open, "rng": self._rng.bit_generator.state}
        first, n = self._starts[0] % self.capacity, len(self)
        spans = [(first, min(first + n, self.capacity))]
        if first + n > self.capacity:
            spans.append((0, first + n - self.capacity))
        runs = {}
        for name, values in self._records.items():
            runs[name] = [values[start:stop] for start, stop in spans]
            for run in runs[name]:
                run.flags.writeable = False
        return meta, runs

    def state(self):
        """``runs`` with each array joined into a copy that shares no memory
        with the ring."""
        meta, runs = self.runs()
        return meta, {name: np.concatenate(pieces) for name, pieces in runs.items()}

    def load_state(self, meta):
        """Take the buffer to ``state``'s meta, checked first, and return the
        ring's first rows, by name, that hold the live records from now on:
        the caller fills them with ``state``'s arrays before the buffer is
        read."""
        lengths = [int(n) for n in meta["lengths"]]
        n = sum(lengths)
        if n > self.capacity or any(k < 1 for k in lengths):
            raise ValueError(f"episode lengths {lengths} do not fit a buffer of {self.capacity} records")
        # numpy raises ValueError for the state of another bit generator
        self._rng.bit_generator.state = meta["rng"]
        self._count = n
        self._starts = np.cumsum([0] + lengths).tolist()
        if meta["open"] and lengths:
            self._starts.pop()
        return {name: values[:n] for name, values in self._records.items()}
