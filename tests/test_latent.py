import numpy as np
import pytest

from costbound import autodiff as ad
from costbound.autodiff import Tensor
from costbound.latent import LatentModel, LatentModelConfig, posterior_noise
from costbound.oracle import finite_diff_grad, grad_rel_error
from costbound import latent
from costbound.replay import ReplayBuffer, SequenceBatch


OBS = (1, 4, 4)


def tiny_config():
    return LatentModelConfig(
        obs_shape=OBS,
        action_dim=2,
        z1_dim=2,
        z2_dim=3,
        feature_dim=4,
        hidden_dim=4,
        conv_channels=(2, 3),
        recon_std=0.4,
    )


def tiny_batch(rng, b=3, l=2):
    return SequenceBatch(
        observations=rng.normal(size=(b, l + 1, *OBS)) * 0.5,
        actions=rng.uniform(-1, 1, size=(b, l, 2)),
        rewards=rng.normal(size=(b, l)),
        costs=(rng.uniform(size=(b, l)) < 0.3).astype(np.float64),
        dones=np.zeros((b, l), dtype=bool),
    )


def test_single_observation_window():
    rng = np.random.default_rng(0)
    model = LatentModel(tiny_config(), rng)
    obs = rng.normal(size=(2, 1, *OBS))
    actions = np.zeros((2, 0, 2))
    noise = posterior_noise(np.random.default_rng(1), 2, 1, model.cfg)
    inf = model.infer_posterior(obs, actions, noise)
    assert len(inf.z1) == 1 and len(inf.z2) == 1
    # the prior over the first z1 is the fixed standard normal
    (prior,) = model.priors(inf.z2, actions)
    assert np.array_equal(prior.mean.data, np.zeros((2, 2)))
    assert np.array_equal(prior.log_std.data, np.zeros((2, 2)))


def test_zero_noise_follows_distribution_means():
    rng = np.random.default_rng(2)
    model = LatentModel(tiny_config(), rng)
    obs = rng.normal(size=(1, 3, *OBS))
    actions = rng.uniform(-1, 1, size=(1, 2, 2))
    zero = (np.zeros((1, 3, 2)), np.zeros((1, 3, 3)))
    inf = model.infer_posterior(obs, actions, zero)
    for t in range(3):
        assert np.allclose(inf.z1[t].data, inf.posteriors[t].mean.data)


def test_inference_deterministic_for_fixed_noise():
    rng = np.random.default_rng(3)
    model = LatentModel(tiny_config(), rng)
    obs = rng.normal(size=(2, 4, *OBS))
    actions = rng.uniform(-1, 1, size=(2, 3, 2))
    noise = posterior_noise(np.random.default_rng(9), 2, 4, model.cfg)
    a = model.infer_posterior(obs, actions, noise)
    b = model.infer_posterior(obs, actions, noise)
    for t in range(4):
        assert np.array_equal(a.z1[t].data, b.z1[t].data)
        assert np.array_equal(a.z2[t].data, b.z2[t].data)


def test_shape_contract_full_window():
    rng = np.random.default_rng(4)
    model = LatentModel(tiny_config(), rng)
    b, l = 5, 3
    obs = rng.normal(size=(b, l + 1, *OBS))
    actions = rng.uniform(-1, 1, size=(b, l, 2))
    noise = posterior_noise(np.random.default_rng(5), b, l + 1, model.cfg)
    inf = model.infer_posterior(obs, actions, noise)
    assert len(inf.z1) == l + 1
    assert all(z.shape == (b, 2) for z in inf.z1)
    assert all(z.shape == (b, 3) for z in inf.z2)


def test_shared_z2_transition_reproduces_inference_path():
    # feeding the inference-path z1 samples through the generative z2 net
    # with the same noise must reproduce the inference z2 exactly
    rng = np.random.default_rng(6)
    model = LatentModel(tiny_config(), rng)
    b, l = 2, 3
    obs = rng.normal(size=(b, l + 1, *OBS))
    actions = rng.uniform(-1, 1, size=(b, l, 2))
    noise = posterior_noise(np.random.default_rng(7), b, l + 1, model.cfg)
    inf = model.infer_posterior(obs, actions, noise)
    for t in range(1, l + 1):
        d = model.z2_step(
            ad.concat([inf.z1[t], inf.z2[t - 1], Tensor(actions[:, t - 1])], axis=1)
        )
        replayed = d.rsample(noise[1][:, t])
        assert np.array_equal(replayed.data, inf.z2[t].data)


def test_online_filter_retraces_the_training_window():
    # one window at B=1, filtered online with the window's own noise
    rng = np.random.default_rng(26)
    model = LatentModel(tiny_config(), rng)
    l = 3
    obs = rng.normal(size=(1, l + 1, *OBS))
    actions = rng.uniform(-1, 1, size=(1, l, 2))
    eps1, eps2 = posterior_noise(np.random.default_rng(27), 1, l + 1, model.cfg)
    inf = model.infer_posterior(obs, actions, (eps1, eps2))
    state = model.filter_init(obs[0, 0], eps1[0, 0], eps2[0, 0])
    for t in range(l + 1):
        if t:
            state = model.filter_step(state, actions[0, t - 1], obs[0, t], eps1[0, t], eps2[0, t])
        np.testing.assert_allclose(state[0], inf.z1[t].data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(state[1], inf.z2[t].data[0], rtol=0, atol=1e-12)


def test_model_loss_cost_term_vanishes_under_perfect_prediction():
    rng = np.random.default_rng(11)
    model = LatentModel(tiny_config(), rng)
    batch = tiny_batch(rng)
    batch.costs[...] = 0.0
    # saturate the cost head towards "never a violation"
    final = model.cost_head.layers[-1]
    final.w.data[...] = 0.0
    final.b.data[...] = -40.0
    noise = posterior_noise(np.random.default_rng(12), 3, 3, model.cfg)
    _, parts = model.model_loss(batch, noise)
    assert abs(parts["cost_nll"]) < 1e-12


def test_model_loss_kl_nonnegative():
    rng = np.random.default_rng(13)
    model = LatentModel(tiny_config(), rng)
    batch = tiny_batch(rng)
    noise = posterior_noise(np.random.default_rng(14), 3, 3, model.cfg)
    _, parts = model.model_loss(batch, noise)
    assert parts["kl"] >= 0.0


def test_model_loss_kl_asymmetric_pairing():
    # swapping the posterior/prior arguments changes the KL on real inputs
    from costbound.distributions import DiagGaussian, kl_diag_gaussians

    rng = np.random.default_rng(15)
    model = LatentModel(tiny_config(), rng)
    obs = rng.normal(size=(2, 3, *OBS))
    actions = rng.uniform(-1, 1, size=(2, 2, 2))
    noise = posterior_noise(np.random.default_rng(16), 2, 3, model.cfg)
    inf = model.infer_posterior(obs, actions, noise)
    q, p = inf.posteriors[1], model.priors(inf.z2, actions)[1]
    forward = kl_diag_gaussians(q, p).sum().item()
    backward = kl_diag_gaussians(p, q).sum().item()
    assert not np.isclose(forward, backward)


def test_model_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    model = LatentModel(tiny_config(), rng)
    batch = tiny_batch(rng, b=2, l=1)
    noise = posterior_noise(np.random.default_rng(18), 2, 2, model.cfg)
    params = model.parameters()
    loss, _ = model.model_loss(batch, noise)
    ad.backward(loss)

    worst = 0.0
    for p in params:
        base = p.data.copy()

        def f(v, p=p, base=base):
            p.data = v.reshape(base.shape)
            out, _ = model.model_loss(batch, noise)
            p.data = base.copy()
            return out.item()

        fd = finite_diff_grad(f, base.ravel(), h=1e-6).reshape(base.shape)
        if np.linalg.norm(fd) < 1e-12 and np.linalg.norm(p.grad) < 1e-12:
            continue
        worst = max(worst, grad_rel_error(p.grad, fd))
    assert worst <= 1e-4


def test_model_loss_training_reduces_loss_on_linear_gaussian_data():
    # synthetic dataset: scalar latent s_{t+1} = 0.9 s_t + 0.5 a + noise,
    # obs = four features of s as a 2x2 block tiled over a 4x4 frame,
    # reward = s, cost = 1[s > 1]
    from costbound.optim import Adam, clip_grad_norm

    rng = np.random.default_rng(19)
    n_seq, l = 20, 4
    obs = np.zeros((n_seq, l + 1, *OBS))
    actions = rng.uniform(-1, 1, size=(n_seq, l, 2))
    rewards = np.zeros((n_seq, l))
    costs = np.zeros((n_seq, l))
    for i in range(n_seq):
        s = rng.normal() * 0.5
        for t in range(l + 1):
            features = np.array([s, 0.5 * s, -s, 0.2]) + rng.normal(size=4) * 0.05
            obs[i, t, 0] = np.tile(features.reshape(2, 2), (2, 2))
            if t < l:
                s = 0.9 * s + 0.5 * actions[i, t, 0] + rng.normal() * 0.1
                rewards[i, t] = s
                costs[i, t] = float(s > 1.0)
    batch = SequenceBatch(obs, actions, rewards, costs, np.zeros((n_seq, l), dtype=bool))

    model = LatentModel(tiny_config(), np.random.default_rng(20))
    opt = Adam(model.parameters(), lr=3e-3)
    noise_rng = np.random.default_rng(21)
    first = None
    for step in range(2000):
        noise = posterior_noise(noise_rng, n_seq, l + 1, model.cfg)
        opt.zero_grad()
        loss, _ = model.model_loss(batch, noise)
        if first is None:
            first = loss.item()
        ad.backward(loss)
        clip_grad_norm(model.parameters(), 40.0)
        opt.step()
    final, _ = model.model_loss(batch, (np.zeros((n_seq, l + 1, 2)), np.zeros((n_seq, l + 1, 3))))
    assert first > 0
    assert final.item() <= 0.5 * first


def test_non_finite_loss_raises():
    from costbound.latent import NonFiniteLossError

    rng = np.random.default_rng(22)
    model = LatentModel(tiny_config(), rng)
    batch = tiny_batch(rng)
    model.reward_head.layers[-1].b.data[...] = np.nan
    noise = posterior_noise(np.random.default_rng(23), 3, 3, model.cfg)
    with pytest.raises(NonFiniteLossError):
        model.model_loss(batch, noise)


def test_conv_encoder_path_shapes():
    rng = np.random.default_rng(24)
    cfg = tiny_config()
    model = LatentModel(cfg, rng)
    batch = tiny_batch(rng, b=2, l=1)
    noise = posterior_noise(np.random.default_rng(25), 2, 2, cfg)
    loss, parts = model.model_loss(batch, noise)
    assert np.isfinite(loss.item())
    assert parts["kl"] >= 0.0


@pytest.mark.parametrize("encoder", ["mlp", "auto"])
def test_an_encoder_other_than_conv_is_rejected(encoder):
    with pytest.raises(ValueError, match="unknown encoder"):
        LatentModelConfig(obs_shape=OBS, action_dim=2, encoder=encoder)


def test_model_loss_reads_the_sampled_frames_without_copying_them(monkeypatch):
    rng = np.random.default_rng(9)
    model = LatentModel(tiny_config(), rng)
    buf = ReplayBuffer(40, OBS, action_dim=2, seed=1)
    for t in range(12):
        buf.append(rng.integers(0, 256, size=OBS) / 255.0, rng.uniform(-1, 1, size=2), 0.0, 0.0, done=t == 11)
    batch = buf.sample_sequences(3, 2)
    conv_inputs, targets = [], []
    conv2d, log_prob = ad.conv2d, latent.fixed_std_gaussian_log_prob

    def recorded_conv2d(x, *args, **kwargs):
        conv_inputs.append(x.data)
        return conv2d(x, *args, **kwargs)

    def recorded_log_prob(mean, log_std, x):
        targets.append(x)
        return log_prob(mean, log_std, x)

    monkeypatch.setattr(ad, "conv2d", recorded_conv2d)
    monkeypatch.setattr(latent, "fixed_std_gaussian_log_prob", recorded_log_prob)
    model.model_loss(batch, posterior_noise(np.random.default_rng(2), 3, 3, model.cfg))
    # conv1's input and the reconstruction target are the batch's own memory
    assert np.shares_memory(conv_inputs[0], batch.observations)
    assert np.shares_memory(targets[0], batch.observations)
