import json
from types import SimpleNamespace

import numpy as np
import pytest

from costbound.autodiff import Tensor
from costbound.verify import _TableActor, hazard_corridor_policy, run_tabular_suite


def _per_row_sample(actor, z):
    """``_TableActor.sample`` as it was: one scalar draw and one
    ``searchsorted`` per row."""
    states = np.argmax(z, axis=1)
    actions = np.zeros((z.shape[0], actor.num_actions))
    for i, s in enumerate(states):
        actions[i, actor.cdf[s].searchsorted(actor.rng.random(), side="right")] = 1.0
    return actions


def _random_policy():
    """10 states, 4 actions, with zero entries so that CDF rows hold ties."""
    rng = np.random.default_rng(31)
    table = rng.uniform(size=(10, 4)) * (rng.uniform(size=(10, 4)) < 0.6)
    table[:, 1] += 1e-3
    return table / table.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("table", [hazard_corridor_policy(), _random_policy()], ids=["corridor", "random"])
def test_table_actor_sample_matches_the_per_row_draws(table):
    actor = _TableActor(table, np.random.default_rng(4))
    ref = _TableActor(table, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    draws = 0
    for n in [1, 0, 7, 160] * 600:
        z = np.eye(len(table))[rng.integers(len(table), size=n)]
        actions, log_prob = actor.sample(Tensor(z), None)
        expected = _per_row_sample(ref, z)
        assert actions.data.tobytes() == expected.tobytes() and actions.data.shape == expected.shape
        assert log_prob.data.shape == (n,)
        draws += n
    assert draws >= 100_000
    assert actor.rng.bit_generator.state == ref.rng.bit_generator.state


def test_table_actor_draw_equal_to_a_cdf_entry_moves_past_it():
    # searchsorted(side="right") as Generator.choice does: u == cdf[k] picks k + 1
    draws = SimpleNamespace(random=lambda n: np.array([0.0, 0.5, 0.75]))
    actor = _TableActor(np.array([[0.0, 0.5, 0.5]]), draws)
    actions, _ = actor.sample(Tensor(np.ones((3, 1))), None)
    assert np.array_equal(actions.data, np.eye(3)[[1, 2, 2]])


def test_tabular_suite_result_is_plain_json():
    results = run_tabular_suite(0)
    assert all(type(ok) is bool for _, _, ok in results.values())
    assert json.loads(json.dumps(results)) == {name: list(entry) for name, entry in results.items()}
