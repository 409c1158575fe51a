import numpy as np
import pytest

from skillcil import nets
from skillcil.errors import DimensionError, EmptyBatchError


@pytest.fixture
def base():
    return nets.init_mlp((5, 8, 8, 2), seed=1)


@pytest.fixture
def adapter(base):
    return nets.init_adapter(base, rank=2, seed=2)


def test_fresh_adapter_is_neutral(base, adapter):
    x = np.random.default_rng(0).standard_normal((6, 5))
    assert np.array_equal(nets.forward(base, None, x),
                          nets.forward(base, adapter, x))


def test_forward_identity_layer():
    base = nets.BasePolicy(layers=[nets.Linear(w=np.eye(3), b=np.zeros(3))])
    x = np.array([1.0, -2.0, 0.5])
    # Single layer = output layer: no activation, so input passes through.
    assert np.array_equal(nets.forward(base, None, x), x)


def test_forward_relu_two_layer():
    base = nets.BasePolicy(layers=[
        nets.Linear(w=np.array([[1.0], [-1.0]]), b=np.array([0.0, 0.0])),
        nets.Linear(w=np.array([[1.0, 1.0]]), b=np.array([0.5])),
    ])
    # x=2: hidden = relu([2, -2]) = [2, 0]; out = 2 + 0.5
    assert np.allclose(nets.forward(base, None, np.array([2.0])), [2.5])
    # x=-3: hidden = [0, 3]; out = 3.5
    assert np.allclose(nets.forward(base, None, np.array([-3.0])), [3.5])


def test_forward_dimension_mismatch(base):
    with pytest.raises(DimensionError):
        nets.forward(base, None, np.zeros(4))


def test_merge_matches_adapter_forward(base, adapter):
    rng = np.random.default_rng(3)
    for lo in adapter.layers:
        lo.b = rng.standard_normal(lo.b.shape) * 0.1
    x = rng.standard_normal((10, 5))
    merged = nets.merge(base, adapter)
    assert np.max(np.abs(nets.forward(merged, None, x)
                         - nets.forward(base, adapter, x))) < 1e-12


def test_imitation_loss_direct_sum(base):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((7, 5))
    actions = rng.standard_normal((7, 2))
    pred = nets.forward(base, None, x)
    manual = sum(np.sum((p - a) ** 2) for p, a in zip(pred, actions)) / 7
    assert np.isclose(nets.imitation_loss(base, None, x, actions), manual,
                      rtol=1e-12)


def test_loss_empty_batch(base):
    with pytest.raises(EmptyBatchError):
        nets.imitation_loss(base, None, np.zeros((0, 5)), np.zeros((0, 2)))
    with pytest.raises(EmptyBatchError):
        nets.batches(np.zeros((0, 5)), np.zeros((0, 2)), 8,
                     np.random.default_rng(0))


def _fd_check(base, adapter, x, actions, trainable, eps=1e-6):
    """Max relative error between analytic and central-difference gradients."""
    loss, grads = nets.grad(base, adapter, x, actions, trainable=trainable)
    getter = (nets.adapter_params if trainable == "adapter"
              else nets.base_params)
    setter = (nets.set_adapter_params if trainable == "adapter"
              else nets.set_base_params)
    target = adapter if trainable == "adapter" else base
    params = [p.copy() for p in getter(target)]
    worst = 0.0
    for pi, (p, g) in enumerate(zip(params, grads)):
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            setter(target, params)
            lp = nets.imitation_loss(base, adapter, x, actions)
            flat[j] = orig - eps
            setter(target, params)
            lm = nets.imitation_loss(base, adapter, x, actions)
            flat[j] = orig
            setter(target, params)
            fd = (lp - lm) / (2 * eps)
            an = g.ravel()[j]
            denom = max(abs(fd), abs(an), 1e-8)
            worst = max(worst, abs(fd - an) / denom)
    return worst


def test_adapter_gradient_matches_fd():
    base = nets.init_mlp((3, 4, 2), seed=5)
    adapter = nets.init_adapter(base, rank=2, seed=6)
    rng = np.random.default_rng(7)
    for lo in adapter.layers:
        lo.b = rng.standard_normal(lo.b.shape) * 0.1
    x = rng.standard_normal((5, 3))
    actions = rng.standard_normal((5, 2))
    assert _fd_check(base, adapter, x, actions, "adapter") < 1e-5


def test_base_gradient_matches_fd():
    base = nets.init_mlp((3, 4, 2), seed=8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 3))
    actions = rng.standard_normal((5, 2))
    assert _fd_check(base, None, x, actions, "base") < 1e-5


def test_base_gradient_with_frozen_adapter_matches_fd():
    base = nets.init_mlp((3, 4, 2), seed=10)
    adapter = nets.init_adapter(base, rank=1, seed=11)
    rng = np.random.default_rng(12)
    for lo in adapter.layers:
        lo.b = rng.standard_normal(lo.b.shape) * 0.1
    x = rng.standard_normal((4, 3))
    actions = rng.standard_normal((4, 2))
    assert _fd_check(base, adapter, x, actions, "base") < 1e-5


def test_train_adapter_freezes_base(base, adapter):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((32, 5))
    actions = rng.standard_normal((32, 2))
    before = [p.copy() for p in nets.base_params(base)]
    sample = nets.batches(x, actions, 8, np.random.default_rng(14))
    nets.train(base, adapter, sample, steps=20)
    for b, a in zip(before, nets.base_params(base)):
        assert np.array_equal(b, a)  # bit-identical, not just close


def test_train_adapter_reduces_loss(base, adapter):
    rng = np.random.default_rng(15)
    x = rng.standard_normal((64, 5))
    actions = 0.1 * rng.standard_normal((64, 2))
    before = nets.imitation_loss(base, adapter, x, actions)
    sample = nets.batches(x, actions, 32, np.random.default_rng(16))
    nets.train(base, adapter, sample, steps=200)
    assert nets.imitation_loss(base, adapter, x, actions) < before


def test_train_deterministic(base):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((32, 5))
    actions = rng.standard_normal((32, 2))
    import copy
    b1, b2 = copy.deepcopy(base), copy.deepcopy(base)
    for b in (b1, b2):
        sample = nets.batches(x, actions, 8, np.random.default_rng(18))
        nets.train(b, None, sample, steps=30)
    for p1, p2 in zip(nets.base_params(b1), nets.base_params(b2)):
        assert np.array_equal(p1, p2)


def test_adam_scalar_reference():
    # One step from p=0 with g=3: m_hat = g, v_hat = g^2,
    # so the update is -lr * g / (|g| + eps) ≈ -lr.
    p = [np.array([0.0])]
    g = [np.array([3.0])]
    opt = nets.adam_init(p, lr=0.1)
    opt, p2 = nets.adam_step(opt, p, g)
    expected = -0.1 * 3.0 / (3.0 + 1e-8)
    assert np.isclose(p2[0][0], expected, rtol=1e-12)
    assert opt.step == 1


def test_adam_step_is_pure():
    p = [np.array([1.0, 2.0])]
    g = [np.array([0.5, -0.5])]
    opt = nets.adam_init(p, lr=0.01)
    _, p_a = nets.adam_step(opt, p, g)
    _, p_b = nets.adam_step(opt, p, g)
    assert np.array_equal(p_a[0], p_b[0])
    assert np.array_equal(p[0], np.array([1.0, 2.0]))  # input untouched


def test_adam_two_step_reference():
    # Hand-rolled two steps against the closed-form recurrence.
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p_val, m, v = 0.0, 0.0, 0.0
    grads = [2.0, -1.0]
    state = nets.adam_init([np.array([0.0])], lr=lr)
    params = [np.array([0.0])]
    for t, gval in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * gval
        v = b2 * v + (1 - b2) * gval * gval
        p_val -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        state, params = nets.adam_step(state, params, [np.array([gval])])
    assert np.isclose(params[0][0], p_val, rtol=1e-12)


def test_param_count_base():
    base = nets.init_mlp((11, 128, 128, 2), seed=0)
    # 128*11+128 + 128*128+128 + 2*128+2
    assert nets.param_count(base) == 128 * 11 + 128 + 128 * 128 + 128 + 2 * 128 + 2


def test_param_count_adapter(base):
    adapter = nets.init_adapter(base, rank=2, seed=0)
    # layers (5->8), (8->8), (8->2); per layer rank*(d_in + d_out)
    assert nets.param_count(adapter) == 2 * (5 + 8) + 2 * (8 + 8) + 2 * (8 + 2)


def test_checkpoint_roundtrip(tmp_path, base):
    path = tmp_path / "policy.json"
    nets.save_policy(base, path)
    loaded = nets.load_policy(path)
    for p1, p2 in zip(nets.base_params(base), nets.base_params(loaded)):
        assert np.array_equal(p1, p2)
    assert loaded.activation == base.activation
