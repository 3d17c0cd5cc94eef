"""Loss, analytic gradients, optimizers, and the training loop.

backward() seeds the loss gradient and runs the hand-written reverse pass
over the factored layers that network.py keeps beside the forward pass; it
adds into a gradient twin of the network and returns a copy of the twin's
flat vector, laid out like the network's flat parameters.

Batch gradients are reduced over fixed-width column chunks summed in a
fixed order; that order is part of the result, so it never varies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import copy
import hashlib
import json
import math
import time

import numpy as np

from .dvm import check_int, check_seed
from .network import (
    Network,
    _as_columns,
    _backward,
    _real_array,
    forward,
)

# fixed reduction chunk: pins the summation order of batch gradients
_CHUNK_COLS = 32


class TrainingDiverged(RuntimeError):
    """Raised when the loss turns non-finite during training."""


def mse_loss(pred, target, n: int) -> float:
    """Squared error summed over all 2n real components, averaged over the
    batch, divided by n (so a unit-error complex channel contributes 1)."""
    pred = _real_array(pred, "pred")
    target = _real_array(target, "target")
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    cols = 1 if pred.ndim == 1 else pred.shape[1]
    if cols == 0:
        raise ValueError("empty batch: the MSE of zero columns is undefined")
    return float(np.sum((pred - target) ** 2) / (n * cols))


@dataclass
class GradientPack:
    """The gradient of every trainable parameter: flat, laid out like the
    network's flat parameters (net.layout's slots view it) and owned by this
    pack."""

    flat: np.ndarray

    def to_flat(self, net: Network) -> np.ndarray:
        return self.flat


def backward(net: Network, trace, target, norm: float | None = None) -> GradientPack:
    """Gradient of the MSE between trace output and target, for every
    trainable parameter.  norm overrides the n*batch denominator so batch
    chunks of a larger reduction can share one normalization."""
    cfg = net.config
    target, _ = _as_columns(target, 2 * cfg.n, "target")
    y = trace.y
    if y.shape != target.shape:
        raise ValueError(f"target shape {target.shape} does not match {y.shape}")
    if norm is None:
        if y.shape[1] == 0:
            raise ValueError("empty batch: pass norm to take the gradient of zero columns")
        norm = cfg.n * y.shape[1]
    g = (2.0 / norm) * (y - target)
    return GradientPack(_backward(net, trace, g))


# ---------------------------------------------------------------------------
# gradient verification


def min_preactivation_gap(net: Network, x) -> float:
    """Smallest |pre-activation| across all blocks for the given input;
    finite-difference checks need this clear of the activation kink."""
    _, trace = forward(net, x, want_trace=True)
    # pre1 is a complex carrier: its float64 view holds every real component
    return min(float(np.min(np.abs(tr.pre1.view(np.float64)))) for tr in trace.block_traces)


def grad_check(net: Network, x, target) -> dict:
    """Compare analytic gradients against central finite differences of the
    loss, one flat coordinate at a time.

    Relative error uses max(1, |analytic|) in the denominator so tiny
    gradients do not blow the ratio up.
    """
    cfg = net.config
    x2, _ = _as_columns(x, 2 * cfg.n, "x")
    t2, _ = _as_columns(target, 2 * cfg.n, "target")
    _, trace = forward(net, x2, want_trace=True)
    analytic = backward(net, trace, t2).to_flat(net)
    fd = _central_differences(
        net, lambda: mse_loss(forward(net, x2)[0], t2, cfg.n), np.empty_like(analytic)
    )

    rel = np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))
    worst = int(np.argmax(rel))
    slot = next(s for s in net.layout if s.offset <= worst < s.offset + s.width)
    return {
        "max_rel_err": float(rel[worst]),
        "worst_path": slot.path,
        "worst_index": worst - slot.offset,
        "n_checked": int(fd.size),
    }


def _central_differences(model, f, out):
    """Fill out[..., j] with (f(theta0 + h e_j) - f(theta0 - h e_j)) / 2h
    for every coordinate j of model's flat parameters theta0, where
    h = _FD_H_SCALE * max(1, |theta0_j|); f reads the model as set.  theta0 is
    set back afterwards, also when f raises.  Returns out."""
    theta0 = model.get_flat()
    try:
        for j in range(theta0.size):
            h = _FD_H_SCALE * max(1.0, abs(theta0[j]))
            theta = theta0.copy()
            theta[j] += h
            model.set_flat(theta)
            f_plus = f()
            theta[j] = theta0[j] - h
            model.set_flat(theta)
            out[..., j] = (f_plus - f()) / (2 * h)
    finally:
        model.set_flat(theta0)
    return out


# ---------------------------------------------------------------------------
# optimizers

# Finite-difference step of grad_check and the LM Jacobian, relative to
# max(1, |theta_j|).
_FD_H_SCALE = 1e-6
# Damped least-squares (Levenberg-Marquardt) step: the damping a run starts
# from, the factor a rejected solve multiplies it by (an accepted step
# divides by it), and the solves tried per step before it is given up.
_LM_MU = 1e-3
_LM_FACTOR = 10.0
_LM_RETRIES = 8
_LM_PARAM_LIMIT = 5000


@dataclass(frozen=True)
class OptimizerConfig:
    name: str = "adam"
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0
    target_mse: float | None = None

    def __post_init__(self):
        if self.name == "lm":
            object.__setattr__(self, "name", "gauss_newton_lm")
        if self.name not in ("sgd", "adam", "gauss_newton_lm"):
            raise ValueError(f"unknown optimizer {self.name!r}")
        check_seed(self.seed)
        object.__setattr__(self, "batch_size", check_int(self.batch_size, "batch_size", 1))
        object.__setattr__(self, "epochs", check_int(self.epochs, "epochs", 0))
        # each range is written so that NaN fails it too
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if self.target_mse is not None and not 0 <= self.target_mse < math.inf:
            raise ValueError(f"target_mse must be finite and >= 0, got {self.target_mse!r}")

    def to_dict(self) -> dict:
        return asdict(self)


class _AdamState:
    def __init__(self, size):
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def update(self, g, lr, b1=0.9, b2=0.999, eps=1e-8):
        """Advance the moments by gradient g; returns the step to subtract
        from the parameters, lr * mh / (sqrt(vh) + eps).  Two scratch arrays
        take every intermediate, in the order of that formula."""
        self.t += 1
        a = np.multiply(g, 1 - b1)
        self.m *= b1
        self.m += a
        np.multiply(g, 1 - b2, out=a)
        a *= g
        self.v *= b2
        self.v += a
        np.divide(self.v, 1 - b2 ** self.t, out=a)
        np.sqrt(a, out=a)
        a += eps
        step = np.divide(self.m, 1 - b1 ** self.t)
        step *= lr
        step /= a
        return step


def _lm_residual(model, xb, tb):
    # a model may define its own residual map (anything with get_flat /
    # set_flat / residuals works, not just Network)
    res_fn = getattr(model, "residuals", None)
    if res_fn is not None:
        return np.asarray(res_fn(xb, tb), dtype=np.float64).ravel()
    y, _ = forward(model, xb)
    return (y - tb).ravel()


def gauss_newton_lm_step(net, xb, tb, mu):
    """One damped least-squares step on the batch from damping mu; the
    Jacobian comes from central differences (exact up to roundoff here,
    since residuals are piecewise linear in every parameter).  Each rejected
    solve multiplies mu by _LM_FACTOR, up to _LM_RETRIES solves.  Returns
    (loss_after, mu)."""
    theta0 = net.get_flat()
    n_par = theta0.size
    if n_par > _LM_PARAM_LIMIT:
        raise ValueError(
            f"the damped least-squares optimizer builds a dense Jacobian and "
            f"supports at most {_LM_PARAM_LIMIT} trainable parameters, got "
            f"{n_par}; use the adam optimizer for nets this large"
        )
    r0 = _lm_residual(net, xb, tb)
    cfg_obj = getattr(net, "config", None)
    norm = cfg_obj.n * xb.shape[1] if cfg_obj is not None else r0.size
    loss0 = float(r0 @ r0) / norm
    jac = _central_differences(net, lambda: _lm_residual(net, xb, tb), np.empty((r0.size, n_par)))
    g = jac.T @ r0
    h_mat = jac.T @ jac
    eye = np.eye(n_par)
    for _ in range(_LM_RETRIES):
        try:
            delta = np.linalg.solve(h_mat + mu * eye, -g)
        except np.linalg.LinAlgError:
            mu *= _LM_FACTOR
            continue
        net.set_flat(theta0 + delta)
        r1 = _lm_residual(net, xb, tb)
        loss1 = float(r1 @ r1) / norm
        if np.isfinite(loss1) and loss1 < loss0:
            return loss1, max(mu / _LM_FACTOR, 1e-12)
        net.set_flat(theta0)
        mu *= _LM_FACTOR
    return loss0, mu


def optimizer_step(theta, grad, state, opt: OptimizerConfig):
    """One gradient step, the only place the sgd and adam update rules live;
    returns (new_theta, new_state).

    sgd keeps no state.  adam keeps moment estimates in the state object;
    pass None on the first call.
    """
    if opt.name == "gauss_newton_lm":
        raise ValueError(
            "the damped least-squares kind refits residuals through the model, "
            "not a gradient: gauss_newton_lm_step runs it, and train calls that"
        )
    theta = _real_array(theta, "theta")
    grad = _real_array(grad, "grad")
    if theta.shape != grad.shape:
        raise ValueError("theta and grad shapes differ")
    if opt.name == "sgd":
        return theta - opt.lr * grad, state
    if state is None:
        state = _AdamState(theta.size)
    return theta - state.update(grad, opt.lr), state


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainReport:
    network: dict
    optimizer: dict
    seed: int
    param_count: int
    epochs_run: int
    steps_run: int
    stop_reason: str
    train_mse: list
    val_mse: list
    final_train_mse: float
    final_val_mse: float
    wall_time_s: float

    def to_dict(self) -> dict:
        """A deep copy: editing the result never changes the report or a
        later digest()."""
        # epochs and optimizer steps are both reported: the two countings
        # are easy to confuse and cheap to disambiguate
        return copy.deepcopy({
            "config": {"network": self.network, "optimizer": self.optimizer},
            "seed": self.seed,
            "param_count": self.param_count,
            "epochs_run": self.epochs_run,
            "steps_run": self.steps_run,
            "stop_reason": self.stop_reason,
            "train_mse": self.train_mse,
            "val_mse": self.val_mse,
            "final_train_mse": self.final_train_mse,
            "final_val_mse": self.final_val_mse,
            "wall_time_s": self.wall_time_s,
        })

    def canonical_dict(self) -> dict:
        """Everything that must reproduce bit-for-bit across reruns; wall
        time is measurement, not result, so it is excluded."""
        d = self.to_dict()
        d.pop("wall_time_s")
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _batch_grads(net: Network, xb, tb):
    """Flat gradient and squared-error sum for one batch, reduced over
    fixed-width chunks in fixed order."""
    cols = xb.shape[1]
    norm = net.config.n * cols
    flat, sq_total = None, 0.0
    for a in range(0, cols, _CHUNK_COLS):
        b = min(a + _CHUNK_COLS, cols)
        y, trace = forward(net, xb[:, a:b], want_trace=True)
        sq_total += float(np.sum((y - tb[:, a:b]) ** 2))
        g = backward(net, trace, tb[:, a:b], norm=norm).to_flat(net)
        flat = g if flat is None else flat + g
    return flat, sq_total


def evaluate_mse(net: Network, x_rows, t_rows) -> float:
    """Full-set MSE; rows are samples."""
    x = _real_array(x_rows, "x_rows").T
    t = _real_array(t_rows, "t_rows").T
    y, _ = forward(net, x)
    return mse_loss(y, t, net.config.n)


def train(
    net: Network,
    train_x,
    train_t,
    val_x,
    val_t,
    opt: OptimizerConfig,
) -> TrainReport:
    """Mini-batch training with per-epoch validation, stopped once the
    validation MSE reaches opt.target_mse.  Sample arrays are row-major
    (one sample per row, width 2n), real-split, never complex.

    Raises TrainingDiverged as soon as any batch loss turns non-finite.
    """
    t_start = time.perf_counter()
    cfg = net.config
    xT = _real_array(train_x, "train_x").T
    tT = _real_array(train_t, "train_t").T
    val_x, val_t = _real_array(val_x, "val_x"), _real_array(val_t, "val_t")
    if xT.shape[0] != 2 * cfg.n or xT.shape != tT.shape:
        raise ValueError(
            f"training arrays must be (samples, {2 * cfg.n}); got "
            f"{np.shape(train_x)} and {np.shape(train_t)}"
        )
    n_samples = xT.shape[1]
    if n_samples == 0:
        raise ValueError("training set is empty")
    if np.size(val_x) == 0 or np.size(val_t) == 0:
        raise ValueError("validation set is empty")
    rng = np.random.default_rng(opt.seed)
    theta = net.flat  # updated in place: every parameter array views it
    state = None
    mu = _LM_MU
    train_hist: list = []
    val_hist: list = []
    stop_reason = "max_epochs"
    epochs_run = 0
    steps_run = 0

    for epoch in range(opt.epochs):
        order = rng.permutation(n_samples)
        sq_sum = 0.0
        seen = 0
        for a in range(0, n_samples, opt.batch_size):
            idx = order[a : a + opt.batch_size]
            xb, tb = xT[:, idx], tT[:, idx]
            if opt.name == "gauss_newton_lm":
                loss_b, mu = gauss_newton_lm_step(net, xb, tb, mu)
                sq_sum += loss_b * cfg.n * xb.shape[1]
            else:
                flat_g, sq = _batch_grads(net, xb, tb)
                loss_b = sq / (cfg.n * xb.shape[1])
                theta[...], state = optimizer_step(theta, flat_g, state, opt)
                sq_sum += sq
            steps_run += 1
            seen += xb.shape[1]
            if not np.isfinite(loss_b):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch start {a}"
                )
        train_hist.append(sq_sum / (cfg.n * seen))
        val_hist.append(evaluate_mse(net, val_x, val_t))
        epochs_run = epoch + 1
        if not np.isfinite(val_hist[-1]):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        if opt.target_mse is not None and val_hist[-1] <= opt.target_mse:
            stop_reason = "target_reached"
            break

    return TrainReport(
        network=cfg.to_dict(),
        optimizer=opt.to_dict(),
        seed=opt.seed,
        param_count=net.param_count(),
        epochs_run=epochs_run,
        steps_run=steps_run,
        stop_reason=stop_reason,
        train_mse=[float(v) for v in train_hist],
        val_mse=[float(v) for v in val_hist],
        final_train_mse=evaluate_mse(net, train_x, train_t),
        final_val_mse=evaluate_mse(net, val_x, val_t),
        wall_time_s=time.perf_counter() - t_start,
    )
