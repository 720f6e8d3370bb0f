import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costbound import autodiff as ad
from costbound.autodiff import Tensor
from costbound.optim import Adam, clip_grad_norm, ema_update


def test_first_step_magnitude_is_learning_rate():
    p = Tensor(np.array([1.0, -2.0, 5.0]), requires_grad=True)
    p.grad = np.array([0.3, -40.0, 1e-3])
    before = p.data.copy()
    Adam([p], lr=0.05).step()
    # bias-corrected first step moves by ~lr in the sign of g (eps is negligible)
    assert np.allclose(np.abs(p.data - before), 0.05, atol=1e-6)
    assert np.all(np.sign(before - p.data) == np.sign(p.grad))


def test_zero_gradient_leaves_parameters_unchanged():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = Adam([p], lr=0.1)
    for _ in range(3):
        opt.step()
    assert np.array_equal(p.data, np.array([1.0, 2.0]))


def test_three_steps_match_hand_recurrence():
    # minimize f(x) = x^2 from x=1 with lr=0.1; oracle runs the textbook
    # recurrence with plain numpy scalars
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x_ref, m, v = 1.0, 0.0, 0.0
    trajectory = []
    for t in range(1, 4):
        g = 2.0 * x_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(x_ref)

    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=lr)
    seen = []
    for _ in range(3):
        opt.zero_grad()
        loss = (p * p).sum()
        ad.backward(loss)
        opt.step()
        seen.append(float(p.data[0]))
    assert np.allclose(seen, trajectory, rtol=0, atol=1e-15)


def test_missing_grad_raises():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(RuntimeError):
        Adam([p], lr=0.1).step()


def test_clip_halves_norm_exactly():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([48.0, 64.0])  # norm 80
    pre = clip_grad_norm([p], 40.0)
    assert np.isclose(pre, 80.0)
    assert np.isclose(np.linalg.norm(p.grad), 40.0)


def test_clip_under_threshold_unchanged():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([6.0, 8.0])
    pre = clip_grad_norm([p], 40.0)
    assert np.isclose(pre, 10.0)
    assert np.array_equal(p.grad, np.array([6.0, 8.0]))


def test_clip_global_norm_over_mixed_shapes():
    rng = np.random.default_rng(3)
    params = [Tensor(np.zeros(s), requires_grad=True) for s in [(3,), (2, 4), (1, 2, 2)]]
    flat = []
    for p in params:
        p.grad = rng.normal(size=p.shape) * 10.0
        flat.append(p.grad.ravel().copy())
    expected = np.linalg.norm(np.concatenate(flat))
    pre = clip_grad_norm(params, 1.0)
    assert np.isclose(pre, expected)
    post = np.sqrt(sum(np.sum(p.grad**2) for p in params))
    assert np.isclose(post, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    max_norm=st.floats(0.1, 100.0),
)
def test_clip_idempotent(seed, max_norm):
    rng = np.random.default_rng(seed)
    p = Tensor(np.zeros(6), requires_grad=True)
    p.grad = rng.normal(size=6) * 30.0
    clip_grad_norm([p], max_norm)
    once = p.grad.copy()
    clip_grad_norm([p], max_norm)
    assert np.array_equal(p.grad, once)


def test_ema_full_copy():
    t = Tensor(np.array([1.0, 2.0]))
    o = Tensor(np.array([5.0, -3.0]))
    ema_update([t], [o], nu=1.0)
    assert np.array_equal(t.data, o.data)


def test_ema_table_value():
    t = Tensor(np.array([0.0]))
    o = Tensor(np.array([1.0]))
    ema_update([t], [o], nu=5e-3)
    assert np.isclose(t.data[0], 0.005)


def test_ema_geometric_convergence():
    t = Tensor(np.array([0.0]))
    o = Tensor(np.array([1.0]))
    nu = 0.1
    for k in range(1, 51):
        ema_update([t], [o], nu=nu)
        assert np.isclose(t.data[0], 1.0 - (1.0 - nu) ** k)
    assert abs(t.data[0] - 1.0) < (1.0 - nu) ** 49


def test_ema_fixed_point_exact():
    vals = np.array([0.1, -2.3, 7.7])
    t = Tensor(vals.copy())
    o = Tensor(vals.copy())
    ema_update([t], [o], nu=5e-3)
    assert np.array_equal(t.data, vals)


def test_ema_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ema_update([Tensor(np.zeros(2))], [Tensor(np.zeros(3))], nu=0.5)
