"""Trainer tests: loss semantics, analytic gradients against finite
differences, the three optimizer kinds, and the training-loop contract
(determinism, early stopping, divergence handling, report schema)."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from dvmbeam.network import (
    KIND_DENSE,
    NetworkConfig,
    ParamSlot,
    build_network,
    forward,
    init_from_dvm,
)
from dvmbeam.signals import make_dataset
from dvmbeam.training import (
    OptimizerConfig,
    _AdamState,
    TrainingDiverged,
    backward,
    evaluate_mse,
    gauss_newton_lm_step,
    grad_check,
    loss_and_grads,
    min_preactivation_gap,
    mse_loss,
    optimizer_step,
    train,
)

# noiseless 64-sample set on 4 channels; every trainer test that needs data
# reuses it (the exact transform parameters reach loss 0 on it, so small
# convergence bounds are meaningful)
DS = make_dataset(4, 24e9, [20.0, 30.0, 40.0, 50.0], 16, 0.0, seed=0)


def random_net(seed, kind="structured", slope=0.2):
    return build_network(
        NetworkConfig(n=4, kind=kind, activation_slope=slope, seed=seed)
    )


def exact_net():
    alpha = complex(np.exp(-2j * np.pi * 24e9 / (32e9 * 4)))
    cfg = NetworkConfig(n=4, activation_slope=1.0, delay_alpha=1.0 + 0.0j, seed=0)
    return init_from_dvm(build_network(cfg), alpha)


def clear_of_kinks(net, rng, cols=4):
    """Input columns whose pre-activations sit away from the leaky kink;
    finite differences are meaningless at the kink itself."""
    for _ in range(50):
        x = rng.normal(size=(8, cols))
        if min_preactivation_gap(net, x) > 1e-4:
            return x
    raise AssertionError("could not sample inputs clear of activation kinks")


# ---------------------------------------------------------------------------
# loss


def test_mse_zero_at_match():
    x = np.arange(8.0).reshape(4, 2)
    assert mse_loss(x, x.copy(), 2) == 0.0


def test_mse_single_unit_error():
    # one complex channel, one sample, unit real error
    assert mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1) == 1.0


def test_mse_duplicating_batch_unchanged():
    rng = np.random.default_rng(11)
    p = rng.normal(size=(8, 5))
    t = rng.normal(size=(8, 5))
    one = mse_loss(p, t, 4)
    two = mse_loss(np.hstack([p, p]), np.hstack([t, t]), 4)
    assert two == pytest.approx(one, rel=1e-15)


def test_mse_batch_permutation_invariant():
    rng = np.random.default_rng(12)
    p = rng.normal(size=(8, 7))
    t = rng.normal(size=(8, 7))
    perm = rng.permutation(7)
    assert mse_loss(p[:, perm], t[:, perm], 4) == pytest.approx(
        mse_loss(p, t, 4), rel=1e-15
    )


def test_mse_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        mse_loss(np.zeros((8, 2)), np.zeros((8, 3)), 4)


# ---------------------------------------------------------------------------
# analytic gradients


def test_backward_zero_residual_zero_grads():
    net = random_net(0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 4))
    y, trace = forward(net, x, want_trace=True)
    pack = backward(net, trace, y)
    for path, g in pack.data.items():
        assert np.max(np.abs(g)) <= 1e-14, path


def test_backward_covers_exactly_the_trainables():
    net = random_net(3)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 2))
    _, trace = forward(net, x, want_trace=True)
    pack = backward(net, trace, rng.normal(size=(8, 2)))
    paths = [p for p, _, _ in net.param_entries()]
    assert sorted(pack.data) == sorted(paths)
    # the delay diagonal is frozen: no gradient slot may exist for it
    assert not any("delay" in p for p in pack.data)


def test_second_backward_leaves_the_first_pack_unchanged():
    net = random_net(6)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 3))
    _, trace = forward(net, x, want_trace=True)
    first = backward(net, trace, rng.normal(size=(8, 3)))
    flat = first.flat.copy()
    data = {path: g.copy() for path, g in first.data.items()}
    second = backward(net, trace, rng.normal(size=(8, 3)))
    assert not np.array_equal(second.flat, flat)
    assert np.array_equal(first.flat, flat)
    assert all(np.array_equal(first.data[path], g) for path, g in data.items())


def test_backward_builds_no_views_after_the_first_call(monkeypatch):
    net = build_network(NetworkConfig(n=16, depth=5, seed=1))
    rng = np.random.default_rng(5)
    x, t = rng.normal(size=(32, 4)), rng.normal(size=(32, 4))
    _, trace = forward(net, x, want_trace=True)
    backward(net, trace, t)
    views = []
    view = ParamSlot.view
    monkeypatch.setattr(ParamSlot, "view", lambda slot, buf: views.append(slot.path) or view(slot, buf))
    backward(net, trace, t)
    assert views == []


def test_empty_batch_names_itself_in_a_value_error():
    net = random_net(4)
    x = np.zeros((8, 0))
    _, trace = forward(net, x, want_trace=True)
    with pytest.raises(ValueError, match="empty batch"):
        backward(net, trace, x)
    with pytest.raises(ValueError, match="empty batch"):
        mse_loss(x, x, 4)
    with pytest.raises(ValueError, match="empty batch"):
        loss_and_grads(net, x, x)
    # a caller that names the normalization still gets the (zero) gradient
    assert not backward(net, trace, x, norm=1.0).flat.any()


def test_backward_target_shape_mismatch():
    net = random_net(4)
    x = np.zeros((8, 3))
    _, trace = forward(net, x, want_trace=True)
    with pytest.raises(ValueError, match="target"):
        backward(net, trace, np.zeros((8, 2)))


def test_gradient_flat_layout_matches_parameters():
    net = random_net(5)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 2))
    loss, pack = loss_and_grads(net, x, rng.normal(size=(8, 2)))
    assert pack.to_flat(net).shape == net.get_flat().shape
    assert loss >= 0.0


def _interleaved_reference(pack, net):
    """The pack-by-path layout, built the explicit way: complex gradients as
    re/im pairs, real gradients as values, in declaration order."""
    parts = []
    for path, arr, kind in net.param_entries():
        g = pack.data[path]
        if kind == "complex":
            buf = np.empty(arr.size * 2)
            buf[0::2] = g.real.ravel()
            buf[1::2] = g.imag.ravel()
            parts.append(buf)
        else:
            parts.append(np.asarray(g).real.ravel())
    return np.concatenate(parts)


@pytest.mark.parametrize("cfg", [
    NetworkConfig(n=4, seed=11),
    NetworkConfig(n=4, p=2, l_layers=9, seed=13),
    NetworkConfig(n=4, kind=KIND_DENSE, seed=14),
], ids=["complex", "p2-L9", "dense"])
def test_gradient_flat_equals_interleaved_pack(cfg):
    net = build_network(cfg)
    rng = np.random.default_rng(15)
    x = rng.normal(size=(8, 5))
    _, trace = forward(net, x, want_trace=True)
    pack = backward(net, trace, rng.normal(size=(8, 5)))
    flat = pack.to_flat(net)
    assert np.array_equal(flat, _interleaved_reference(pack, net))
    for path, arr, _ in net.param_entries():
        assert pack.data[path].dtype == arr.dtype, path
        assert np.shares_memory(pack.data[path], flat), path


def test_grad_check_exact_init_linear():
    # identity activation makes the whole map linear, so the loss is exactly
    # quadratic in each parameter and central differences are near-exact
    net = exact_net()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 4))
    t = 10.0 * rng.normal(size=(8, 4))
    res = grad_check(net, x, t)
    assert res["max_rel_err"] <= 1e-7


def test_grad_check_random_net():
    rng = np.random.default_rng(6)
    net = random_net(3)
    x = clear_of_kinks(net, rng)
    t = rng.normal(size=(8, 4))
    res = grad_check(net, x, t)
    assert res["max_rel_err"] <= 1e-5
    assert res["n_checked"] == net.get_flat().size


# a delay generator away from 1, so that the delay layer's reverse is checked too
DELAY = complex(np.exp(-0.7j))


@pytest.mark.parametrize("cfg", [
    NetworkConfig(n=4, p=2, l_layers=9, delay_alpha=DELAY, seed=23),
    NetworkConfig(n=4, p=2, l_layers=9, kind=KIND_DENSE, delay_alpha=DELAY, seed=24),
], ids=["complex-p2-L9", "dense-p2-L9"])
def test_grad_check_block_variants(cfg):
    # every branch of the block pass: p > 1, repeated blocks, and the dense kind
    rng = np.random.default_rng(cfg.seed)
    net = build_network(cfg)
    x = clear_of_kinks(net, rng, cols=3)
    res = grad_check(net, x, rng.normal(size=(8, 3)))
    assert res["max_rel_err"] <= 1e-5, res
    assert res["n_checked"] == net.param_count()


def test_grad_check_flags_corrupted_component():
    # corrupt the largest analytic gradient by 1%; the check must point at
    # exactly that parameter with an error above the detection floor
    rng = np.random.default_rng(5)
    net = random_net(3)
    x = rng.normal(size=(8, 4))
    t = 10.0 * rng.normal(size=(8, 4))
    _, trace = forward(net, x, want_trace=True)
    flat = backward(net, trace, t).to_flat(net)

    spans = []
    pos = 0
    for path, arr, kind in net.param_entries():
        k = arr.size * (2 if kind == "complex" else 1)
        spans.append((path, pos, pos + k))
        pos += k
    j = int(np.argmax(np.abs(flat)))
    assert abs(flat[j]) > 1.0
    path = next(p for p, a, b in spans if a <= j < b)
    off = j - next(a for p, a, b in spans if p == path)

    res = grad_check(net, x, t, corrupt=(path, off, 1.01))
    assert res["worst_path"] == path
    assert res["worst_index"] == off
    assert res["max_rel_err"] >= 5e-3


def test_grad_check_unknown_corrupt_path():
    net = random_net(0)
    with pytest.raises(ValueError, match="unknown parameter"):
        grad_check(net, np.zeros((8, 1)), np.zeros((8, 1)),
                   corrupt=("nope", 0, 2.0))


def test_grad_check_twenty_random_nets():
    for seed in range(10):
        for kind in ("structured", KIND_DENSE):
            rng = np.random.default_rng(100 + seed)
            net = random_net(seed, kind=kind)
            x = clear_of_kinks(net, rng, cols=3)
            t = rng.normal(size=(8, 3))
            res = grad_check(net, x, t)
            assert res["max_rel_err"] <= 1e-5, (kind, seed, res)


def test_grad_check_restores_parameters():
    net = random_net(7)
    before = net.get_flat()
    rng = np.random.default_rng(8)
    grad_check(net, rng.normal(size=(8, 2)), rng.normal(size=(8, 2)))
    assert np.array_equal(net.get_flat(), before)


# ---------------------------------------------------------------------------
# optimizer steps


def test_sgd_step_hand_arithmetic():
    # f(theta) = theta^2, grad at 1 is 2, lr 0.1 -> 0.8
    opt = OptimizerConfig(name="sgd", lr=0.1)
    theta, state = optimizer_step(np.array([1.0]), np.array([2.0]), None, opt)
    assert np.array_equal(theta, [0.8])
    assert state is None


def test_adam_zero_grad_is_identity():
    opt = OptimizerConfig(name="adam", lr=0.5)
    theta0 = np.array([1.0, -2.0, 3.5])
    theta, state = optimizer_step(theta0, np.zeros(3), None, opt)
    assert np.array_equal(theta, theta0)
    # and stays the identity on repeated zero-gradient calls
    theta, state = optimizer_step(theta, np.zeros(3), state, opt)
    assert np.array_equal(theta, theta0)


def test_adam_descends_on_quadratic():
    opt = OptimizerConfig(name="adam", lr=0.1)
    theta = np.array([1.0])
    state = None
    for _ in range(60):
        theta, state = optimizer_step(theta, 2.0 * theta, state, opt)
    assert abs(theta[0]) < 0.2


def _reference_adam_step(m, v, t, g, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The update as one expression per moment, with its temporaries: the
    in-place update must reproduce it bit for bit."""
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    mh = m / (1 - b1 ** t)
    vh = v / (1 - b2 ** t)
    return lr * mh / (np.sqrt(vh) + eps)


@pytest.mark.parametrize("size,lr,seed", [
    (1, 1e-3, 0), (7, 0.5, 1), (64, 3e-2, 2), (384, 3e-2, 3), (1000, 0.1, 4), (4097, 1e-2, 5),
])
def test_adam_update_matches_reference_bytes(size, lr, seed):
    rng = np.random.default_rng(seed)
    state = _AdamState(size)
    m, v = np.zeros(size), np.zeros(size)
    for t in range(1, 21):
        g = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 3)
        g[:: 3] = 0.0
        want = _reference_adam_step(m, v, t, g, lr)
        got = state.update(g, lr)
        assert got.tobytes() == want.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


def test_adam_update_allocates_two_vectors():
    # every intermediate lives in two scratch arrays, one of them the step
    size = 100_000
    state = _AdamState(size)
    g = np.random.default_rng(6).standard_normal(size)
    state.update(g, 1e-3)
    tracemalloc.start()
    try:
        step = state.update(g, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert step.shape == (size,)
    assert peak <= 2 * 8 * size + 4096


def test_step_shape_mismatch():
    for name in ("sgd", "adam"):
        with pytest.raises(ValueError, match="shapes differ"):
            optimizer_step(np.zeros(3), np.zeros(4), None,
                           OptimizerConfig(name=name))


class LeastSquaresToy:
    """Affine residual r(theta) = A theta - b: the loss is exactly quadratic,
    so one damped step with small mu lands on the normal-equations optimum."""

    def __init__(self, theta0):
        self.theta = np.asarray(theta0, dtype=np.float64).copy()

    def get_flat(self):
        return self.theta.copy()

    def set_flat(self, th):
        self.theta = np.asarray(th, dtype=np.float64).copy()

    def residuals(self, a_mat, b_vec):
        return a_mat @ self.theta - b_vec


def test_lm_toy_reaches_normal_equations_optimum():
    rng = np.random.default_rng(7)
    a_mat = rng.normal(size=(8, 3))
    b_vec = rng.normal(size=8)
    toy = LeastSquaresToy(np.zeros(3))
    opt = OptimizerConfig(name="lm")
    mu = opt.lm_mu
    accepted = 0
    for _ in range(3):
        r = toy.residuals(a_mat, b_vec)
        loss_before = float(r @ r) / r.size
        loss_after, mu = gauss_newton_lm_step(toy, a_mat, b_vec, mu, opt)
        if loss_after < loss_before:
            accepted += 1
    theta_star = np.linalg.lstsq(a_mat, b_vec, rcond=None)[0]
    assert accepted <= 3
    assert np.max(np.abs(toy.theta - theta_star)) <= 1e-9


def test_lm_through_optimizer_step():
    rng = np.random.default_rng(9)
    a_mat = rng.normal(size=(10, 4))
    b_vec = rng.normal(size=10)
    toy = LeastSquaresToy(np.zeros(4))
    opt = OptimizerConfig(name="gauss_newton_lm")
    loss0 = float(np.sum(toy.residuals(a_mat, b_vec) ** 2))
    state = {"net": toy, "x": a_mat, "t": b_vec}
    theta, state = optimizer_step(None, None, state, opt)
    assert "mu" in state
    assert np.array_equal(theta, toy.get_flat())
    assert float(np.sum(toy.residuals(a_mat, b_vec) ** 2)) < loss0


def test_lm_rejects_gradient_only_state():
    opt = OptimizerConfig(name="lm")
    for bad in (None, {}, {"net": object()}):
        with pytest.raises(ValueError, match="adam"):
            optimizer_step(np.zeros(3), np.zeros(3), bad, opt)


def test_lm_parameter_limit_suggests_adam():
    toy = LeastSquaresToy(np.zeros(5001))
    with pytest.raises(ValueError, match="adam"):
        gauss_newton_lm_step(toy, np.zeros((2, 5001)), np.zeros(2),
                             1e-3, OptimizerConfig(name="lm"))


def test_lm_restores_parameters_when_a_residual_raises():
    class Failing(LeastSquaresToy):
        calls = 0

        def residuals(self, a_mat, b_vec):
            self.calls += 1
            if self.calls == 3:  # the first minus step of the Jacobian
                raise FloatingPointError("residual failed")
            return super().residuals(a_mat, b_vec)

    toy = Failing(np.array([0.5, -2.0]))
    with pytest.raises(FloatingPointError):
        gauss_newton_lm_step(toy, np.eye(2), np.zeros(2), 1e-3, OptimizerConfig(name="lm"))
    assert toy.theta.tobytes() == np.array([0.5, -2.0]).tobytes()


def test_lm_rejection_raises_mu():
    # start at the optimum of a 1-parameter problem: every trial step is a
    # rejection and mu must grow by the configured factor per retry
    a_mat = np.array([[1.0], [2.0]])
    b_vec = np.array([0.0, 0.0])
    toy = LeastSquaresToy(np.zeros(1))
    opt = OptimizerConfig(name="lm", lm_retries=3, lm_factor=10.0)
    loss, mu = gauss_newton_lm_step(toy, a_mat, b_vec, 1e-3, opt)
    assert loss == 0.0
    assert mu == pytest.approx(1e-3 * 10.0 ** 3)
    assert np.array_equal(toy.theta, [0.0])


def test_optimizer_config_validation():
    assert OptimizerConfig(name="lm").name == "gauss_newton_lm"
    with pytest.raises(ValueError, match="unknown optimizer"):
        OptimizerConfig(name="adagrad")
    with pytest.raises(ValueError):
        OptimizerConfig(lr=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(batch_size=0)
    with pytest.raises(ValueError):
        OptimizerConfig(epochs=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(lm_factor=1.0)


@pytest.mark.parametrize("kwargs", [
    dict(lr=float("nan")), dict(lr=float("inf")), dict(target_mse=float("nan")),
    dict(target_mse=-1e-3), dict(lm_mu=float("nan")), dict(lm_mu=-1.0),
    dict(lm_factor=float("nan")), dict(lm_factor=float("inf")), dict(lm_retries=-1),
    dict(patience=0),
], ids=["lr_nan", "lr_inf", "target_nan", "target_neg", "mu_nan", "mu_neg",
        "factor_nan", "factor_inf", "retries_neg", "patience_0"])
def test_optimizer_config_rejects_nan_and_out_of_range(kwargs):
    # NaN fails every comparison, so each check is written to fail on it
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        OptimizerConfig(**kwargs)


def test_optimizer_config_keeps_the_valid_edges():
    opt = OptimizerConfig(target_mse=0.0, patience=1, lm_mu=0.0, lm_retries=0)
    assert (opt.target_mse, opt.patience, opt.lm_mu, opt.lm_retries) == (0.0, 1, 0.0, 0)


def test_optimizer_config_dict_keeps_the_shuffle_literal():
    # batches are always shuffled; the key stays because report digests hash it
    d = OptimizerConfig().to_dict()
    assert d["shuffle"] is True
    assert OptimizerConfig.from_dict(d) == OptimizerConfig()
    for value in (False, 0, 1, "true", None):
        with pytest.raises(ValueError, match=f"unsupported shuffle {value!r}"):
            OptimizerConfig.from_dict({**d, "shuffle": value})


@pytest.mark.parametrize("seed", [-1, 2**63, 1.5, None])
def test_optimizer_config_seed_must_fit_the_header_field(seed):
    with pytest.raises(ValueError, match="seed must be an integer in 0..2\\*\\*63-1"):
        OptimizerConfig(seed=seed)
    assert OptimizerConfig(seed=2**63 - 1).seed == 2**63 - 1


def test_optimizer_config_has_no_workers():
    assert "workers" not in OptimizerConfig().to_dict()
    with pytest.raises(TypeError):
        OptimizerConfig(workers=1)


def test_optimizer_config_roundtrip():
    opt = OptimizerConfig(name="adam", lr=3e-2, batch_size=16, epochs=7,
                          seed=5, target_mse=1e-4, patience=9)
    assert OptimizerConfig.from_dict(opt.to_dict()) == opt


# ---------------------------------------------------------------------------
# training loop


def test_train_converges_on_noiseless_small_problem():
    net = random_net(1)
    opt = OptimizerConfig(name="adam", lr=3e-2, batch_size=32, epochs=3000,
                          seed=1, target_mse=1e-6)
    rep = train(net, DS.x, DS.y, DS.x, DS.y, opt)
    assert rep.stop_reason == "target_reached"
    assert rep.epochs_run <= 3000
    assert rep.final_train_mse <= 1e-6


def test_train_same_seed_identical_histories():
    reps = []
    for _ in range(2):
        net = random_net(2)
        opt = OptimizerConfig(name="adam", lr=1e-2, batch_size=16, epochs=8,
                              seed=2)
        reps.append(train(net, DS.x, DS.y, DS.x, DS.y, opt))
    assert reps[0].train_mse == reps[1].train_mse
    assert reps[0].val_mse == reps[1].val_mse
    assert reps[0].digest() == reps[1].digest()


def test_batch_gradient_is_the_ordered_sum_of_32_column_chunks():
    # the summation order is part of the result: a 70-column batch is the
    # in-order sum of its 32-, 32- and 6-column chunks, each normalized by
    # the whole batch
    from dvmbeam.training import _batch_grads

    net = random_net(4)
    x = np.concatenate([DS.x, DS.x[:6]]).T
    t = np.concatenate([DS.y, DS.y[:6]]).T
    want, want_sq = None, 0.0
    for a, b in ((0, 32), (32, 64), (64, 70)):
        y, trace = forward(net, x[:, a:b], want_trace=True)
        want_sq += float(np.sum((y - t[:, a:b]) ** 2))
        g = backward(net, trace, t[:, a:b], norm=4 * 70).to_flat(net)
        want = g if want is None else want + g
    flat, sq = _batch_grads(net, x, t)
    assert flat.tobytes() == want.tobytes() and sq == want_sq


def test_train_loss_descends_for_every_seed():
    for seed in range(10):
        net = random_net(seed)
        opt = OptimizerConfig(name="sgd", lr=1e-3, batch_size=32, epochs=101,
                              seed=seed)
        rep = train(net, DS.x, DS.y, DS.x, DS.y, opt)
        assert rep.train_mse[100] < rep.train_mse[0], seed


def test_train_frozen_sections_untouched():
    net = build_network(NetworkConfig(n=4, delay_alpha=np.exp(0.3j), seed=6))
    delay_before = net.delay.tobytes()
    opt = OptimizerConfig(name="adam", lr=1e-2, batch_size=32, epochs=4, seed=6)
    train(net, DS.x, DS.y, DS.x, DS.y, opt)
    assert net.delay.tobytes() == delay_before


def test_train_lm_descends():
    net = random_net(2)
    opt = OptimizerConfig(name="lm", batch_size=32, epochs=3, seed=2)
    rep = train(net, DS.x, DS.y, DS.x, DS.y, opt)
    assert rep.train_mse[-1] < rep.train_mse[0]
    assert rep.stop_reason == "max_epochs"


def test_train_diverged_raises():
    net = random_net(0)
    opt = OptimizerConfig(name="sgd", lr=1e6, batch_size=32, epochs=50, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(net, DS.x, DS.y, DS.x, DS.y, opt)


def test_train_empty_dataset():
    net = random_net(0)
    empty = np.zeros((0, 8))
    with pytest.raises(ValueError, match="empty"):
        train(net, empty, empty, empty, empty, OptimizerConfig())


def test_train_empty_validation_set():
    net = random_net(0)
    before = net.get_flat()
    empty = np.zeros((0, 8))
    with pytest.raises(ValueError, match="validation set is empty"):
        train(net, DS.x, DS.y, empty, empty, OptimizerConfig(seed=0))
    assert np.array_equal(net.get_flat(), before)  # rejected before any step


def test_train_updates_the_network_buffer_in_place():
    net = random_net(4)
    buf = net.flat
    before = net.get_flat()
    rep = train(net, DS.x, DS.y, DS.x, DS.y,
                OptimizerConfig(name="adam", lr=1e-2, batch_size=32, epochs=2, seed=4))
    assert net.flat is buf
    assert not np.array_equal(buf, before)
    assert rep.final_train_mse == evaluate_mse(net, DS.x, DS.y)


def test_train_width_mismatch():
    net = random_net(0)
    with pytest.raises(ValueError, match="training arrays"):
        train(net, np.zeros((4, 6)), np.zeros((4, 6)),
              np.zeros((2, 6)), np.zeros((2, 6)), OptimizerConfig())


def test_train_zero_epochs():
    net = random_net(3)
    rep = train(net, DS.x, DS.y, DS.x, DS.y,
                OptimizerConfig(epochs=0, seed=3))
    assert rep.epochs_run == 0 and rep.steps_run == 0
    assert rep.train_mse == [] and rep.val_mse == []
    assert rep.stop_reason == "max_epochs"
    assert rep.final_train_mse >= 0.0


def test_train_step_accounting():
    # 64 samples at batch 32 is 2 optimizer steps per epoch
    net = random_net(5)
    rep = train(net, DS.x, DS.y, DS.x, DS.y,
                OptimizerConfig(name="adam", batch_size=32, epochs=7, seed=5))
    assert rep.epochs_run == 7
    assert rep.steps_run == 14


def test_train_patience_stop():
    # an exactly initialized net starts at the optimum; the first update
    # nudges it off, validation stops improving, patience triggers
    net = exact_net()
    opt = OptimizerConfig(name="adam", lr=1e-3, batch_size=32, epochs=50,
                          seed=0, patience=5)
    rep = train(net, DS.x, DS.y, DS.x, DS.y, opt)
    assert rep.stop_reason == "patience"
    assert rep.epochs_run < 50


def test_train_histories_finite_nonnegative():
    net = random_net(8)
    rep = train(net, DS.x, DS.y, DS.x, DS.y,
                OptimizerConfig(name="adam", epochs=5, seed=8))
    for v in rep.train_mse + rep.val_mse:
        assert np.isfinite(v) and v >= 0.0
    assert len(rep.train_mse) == len(rep.val_mse) == rep.epochs_run


# ---------------------------------------------------------------------------
# report schema


def short_report():
    net = random_net(9)
    return train(net, DS.x, DS.y, DS.x, DS.y,
                 OptimizerConfig(name="adam", epochs=2, seed=9))


def test_report_schema():
    d = short_report().to_dict()
    assert sorted(d) == sorted([
        "config", "seed", "param_count", "epochs_run", "steps_run",
        "stop_reason", "train_mse", "val_mse", "final_train_mse",
        "final_val_mse", "wall_time_s",
    ])
    assert sorted(d["config"]) == ["network", "optimizer"]
    assert d["config"]["network"]["n"] == 4
    assert d["config"]["optimizer"]["name"] == "adam"
    assert d["param_count"] > 0


def test_report_canonical_excludes_only_wall_time():
    rep = short_report()
    full = rep.to_dict()
    canon = rep.canonical_dict()
    assert "wall_time_s" not in canon
    full.pop("wall_time_s")
    assert canon == full


def test_report_digest_is_sha256_of_canonical_json():
    rep = short_report()
    expect = hashlib.sha256(rep.canonical_json().encode()).hexdigest()
    assert rep.digest() == expect


@pytest.mark.parametrize("view", ["to_dict", "canonical_dict"])
def test_report_dicts_are_copies(view):
    # editing a returned dict used to edit the report and change digest()
    rep = short_report()
    before = rep.digest()
    d = getattr(rep, view)()
    d["config"]["optimizer"].pop("seed")
    d["config"]["network"]["delay_alpha"][0] = 0.5
    d["train_mse"].append(1.0)
    d["val_mse"].clear()
    assert rep.digest() == before
    assert len(rep.train_mse) == len(rep.val_mse) == rep.epochs_run


def test_report_save_roundtrips_as_json(tmp_path):
    rep = short_report()
    path = tmp_path / "report.json"
    rep.save(str(path))
    loaded = json.loads(path.read_text())
    assert loaded == rep.to_dict()
