import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from costbound import autodiff as ad
from costbound.autodiff import Tensor
from costbound.distributions import (
    DiagGaussian,
    bernoulli_log_prob,
    fixed_std_gaussian_log_prob,
    gaussian_log_prob,
    kl_diag_gaussians,
    squashed_gaussian_log_prob,
    squashed_gaussian_sample,
)
from costbound.oracle import finite_diff_grad, grad_rel_error


def _dg(mean, log_std, requires_grad=False):
    return DiagGaussian(
        Tensor(np.asarray(mean, dtype=float), requires_grad=requires_grad),
        Tensor(np.asarray(log_std, dtype=float), requires_grad=requires_grad),
    )


# -- reparameterized sampling ---------------------------------------------------


def test_rsample_standard_normal_identity():
    eps = np.array([0.3, -1.2, 0.0])
    d = _dg(np.zeros(3), np.zeros(3))
    assert np.array_equal(d.rsample(eps).data, eps)


def test_rsample_gradients():
    eps = np.array([0.7, -0.4])
    mean_val = np.array([0.1, 0.2])
    log_std_val = np.array([-0.3, 0.5])
    d = _dg(mean_val, log_std_val, requires_grad=True)
    out = d.rsample(eps)
    ad.backward(out.sum())
    assert np.allclose(d.mean.grad, 1.0)

    def f(ls):
        return float(np.sum(mean_val + np.exp(ls) * eps))

    fd = finite_diff_grad(f, log_std_val)
    assert np.allclose(d.log_std.grad, np.exp(log_std_val) * eps)
    assert grad_rel_error(d.log_std.grad, fd) <= 1e-6


def test_rsample_shape_mismatch_rejected():
    d = _dg(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        d.rsample(np.zeros(4))


# -- KL divergence --------------------------------------------------------------


def test_kl_identical_is_exactly_zero():
    d = _dg([0.3, -1.0], [0.2, -0.5])
    d2 = _dg([0.3, -1.0], [0.2, -0.5])
    assert abs(kl_diag_gaussians(d, d2).item()) <= 1e-12


def test_kl_unit_shift_half():
    q = _dg([0.0], [0.0])
    p = _dg([1.0], [0.0])
    assert np.isclose(kl_diag_gaussians(q, p).item(), 0.5)


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(7)
    mq, lq = rng.normal(size=8) * 0.5, rng.normal(size=8) * 0.3
    mp, lp = rng.normal(size=8) * 0.5, rng.normal(size=8) * 0.3
    q = _dg(mq, lq)
    p = _dg(mp, lp)
    n = 1_000_000
    x = mq + np.exp(lq) * rng.normal(size=(n, 8))
    logq = (-0.5 * ((x - mq) / np.exp(lq)) ** 2 - lq - 0.5 * math.log(2 * math.pi)).sum(axis=1)
    logp = (-0.5 * ((x - mp) / np.exp(lp)) ** 2 - lp - 0.5 * math.log(2 * math.pi)).sum(axis=1)
    diffs = logq - logp
    mc, se = diffs.mean(), diffs.std(ddof=1) / math.sqrt(n)
    assert abs(kl_diag_gaussians(q, p).item() - mc) <= 3 * se


def test_kl_asymmetric():
    q = _dg([0.0], [0.0])
    p = _dg([1.0], [0.7])
    assert not np.isclose(kl_diag_gaussians(q, p).item(), kl_diag_gaussians(p, q).item())


@settings(max_examples=60, deadline=None)
@given(
    mq=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    lq=st.lists(st.floats(-2, 1), min_size=2, max_size=2),
    mp=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    lp=st.lists(st.floats(-2, 1), min_size=2, max_size=2),
)
def test_kl_nonnegative(mq, lq, mp, lp):
    val = kl_diag_gaussians(_dg(mq, lq), _dg(mp, lp)).item()
    assert val >= -1e-12


# -- Gaussian log density --------------------------------------------------------


def test_log_prob_at_mode_unit_std():
    d = _dg([0.4], [0.0])
    assert np.isclose(gaussian_log_prob(d, np.array([0.4])).item(), -0.9189385332046727)


def test_log_prob_at_mode_std_04():
    d = _dg([0.0], [math.log(0.4)])
    expected = -0.5 * math.log(2 * math.pi) - math.log(0.4)
    assert np.isclose(gaussian_log_prob(d, np.array([0.0])).item(), expected)


def test_log_prob_sums_per_dimension():
    rng = np.random.default_rng(11)
    mean = rng.normal(size=10)
    log_std = rng.normal(size=10) * 0.3
    x = rng.normal(size=10)
    total = gaussian_log_prob(_dg(mean, log_std), x).item()
    per_dim = sum(
        gaussian_log_prob(_dg([mean[i]], [log_std[i]]), np.array([x[i]])).item() for i in range(10)
    )
    assert np.isclose(total, per_dim)


def test_log_prob_batched_rows():
    mean = np.zeros((4, 3))
    d = _dg(mean, np.zeros((4, 3)))
    out = gaussian_log_prob(d, np.zeros((4, 3)))
    assert out.shape == (4,)
    assert np.allclose(out.data, 3 * -0.9189385332046727)


def _bitwise_equal(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("log_std", [math.log(0.4), 0.0], ids=["log 0.4", "0"])
@pytest.mark.parametrize("shape", [(24, 300), (40, 1)])
def test_fixed_std_log_prob_matches_the_composite_bitwise(log_std, shape):
    rng = np.random.default_rng(15)
    mean_val, x = rng.normal(size=shape), rng.normal(size=shape)
    flat_m, flat_x = mean_val.reshape(-1), x.reshape(-1)
    # zero residuals of both signs: -0.0 - 0.0, 0.0 - -0.0 and x == mean
    flat_x[0::5], flat_m[0::5] = -0.0, 0.0
    flat_x[1::5], flat_m[1::5] = 0.0, -0.0
    flat_x[2::5] = flat_m[2::5]
    g = rng.normal(size=shape[0])
    g[:3] = [0.0, -0.0, -1.0]

    def value_and_grad(log_prob):
        mean = Tensor(mean_val, requires_grad=True)
        out = log_prob(mean)
        ad.backward((out * Tensor(g)).sum())
        return out.data, mean.grad

    want = value_and_grad(lambda m: gaussian_log_prob(DiagGaussian(m, Tensor(np.full(shape, log_std))), x))
    got = value_and_grad(lambda m: fixed_std_gaussian_log_prob(m, log_std, x))
    assert _bitwise_equal(got[0], want[0]) and _bitwise_equal(got[1], want[1])
    zeros = got[1][got[1] == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()  # both signed zeros reached it


def test_fixed_std_log_prob_is_one_node_keeping_the_residual():
    mean = Tensor(np.zeros((4, 3)), requires_grad=True)
    out = fixed_std_gaussian_log_prob(mean, math.log(0.4), np.ones((4, 3)))
    assert out._parents == (mean,)
    saved = [c.cell_contents for c in out._vjp.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    assert [a.shape for a in saved] == [(4, 3)]
    assert np.allclose(saved[0], 2.5)
    with pytest.raises(ValueError):
        fixed_std_gaussian_log_prob(mean, 0.0, np.ones((4, 2)))


# -- Bernoulli from logits --------------------------------------------------------


def test_bernoulli_even_odds():
    lp = bernoulli_log_prob(Tensor(np.array([0.0])), np.array([1.0]))
    assert np.isclose(lp.item(), -math.log(2.0))


def test_bernoulli_saturated_logit_finite():
    lp = bernoulli_log_prob(Tensor(np.array([40.0])), np.array([1.0]))
    assert np.isfinite(lp.item())
    assert abs(lp.item()) < 1e-15


def test_bernoulli_moderate_logit_matches_direct_formula():
    logit = -3.2
    lp = bernoulli_log_prob(Tensor(np.array([logit])), np.array([0.0]))
    direct = math.log(1.0 - 1.0 / (1.0 + math.exp(-logit)))
    assert np.isclose(lp.item(), direct)


def test_bernoulli_rejects_non_binary():
    with pytest.raises(ValueError):
        bernoulli_log_prob(Tensor(np.array([0.0])), np.array([0.5]))


# -- tanh-squashed Gaussian --------------------------------------------------------


def test_squashed_sample_in_range_and_log_prob_consistent():
    rng = np.random.default_rng(13)
    mean = Tensor(rng.normal(size=(64, 2)) * 0.5)
    log_std = Tensor(np.full((64, 2), -0.4))
    noise = rng.normal(size=(64, 2))
    action, logp = squashed_gaussian_sample(mean, log_std, noise)
    assert np.all(np.abs(action.data) < 1.0)
    logp_at = squashed_gaussian_log_prob(mean, log_std, action.data)
    assert np.allclose(logp.data, logp_at.data, atol=1e-8)


def test_squashed_density_integrates_to_one():
    mean = Tensor(np.array([0.3]))
    log_std = Tensor(np.array([-0.5]))

    def density(a):
        return math.exp(squashed_gaussian_log_prob(mean, log_std, np.array([a])).item())

    total, err = integrate.quad(density, -1.0, 1.0, limit=200)
    assert abs(total - 1.0) <= 0.01
