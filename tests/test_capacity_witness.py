"""An exact solution of the criterion 7/8 structured net, built by hand:
the net with its frozen delay and leaky activation can apply the scaled
transform to rounding, so a training run that stops short of the dense
baseline's accuracy is limited by the optimizer, not by the structure."""

import numpy as np
import pytest

from dvmbeam.network import NetworkConfig, build_network, forward, init_from_dvm
from dvmbeam.signals import make_dataset, split_dataset
from dvmbeam.training import evaluate_mse


@pytest.mark.parametrize("ghz", [24, 27, 32])
def test_criterion_net_has_an_exact_solution(ghz):
    ds = make_dataset(16, ghz * 1e9, [30, 40, 50], 1000, 0.1, seed=100)
    _, va = split_dataset(ds, seed=100)
    cfg = NetworkConfig(n=16, p=1, depth=5, activation_slope=0.2, delay_alpha=ds.alpha, seed=1)
    net = init_from_dvm(build_network(cfg), ds.alpha)
    (blk,) = net.blocks
    # the input layer's last diagonal undoes the frozen delay that follows it
    blk.d_breve[...] /= net.delay.reshape(cfg.p, cfg.m)
    # a shift of 30 on every real component lifts each pre-activation above
    # the activation's kink, so the leaky activation passes it unchanged
    blk.bias1[...] = 30.0
    blk.skip[...] = 0.0
    # the output bias cancels the shift's image, the output for a zero input
    blk.bias_out[...] = -forward(net, np.zeros(2 * cfg.n))[0]
    mse = evaluate_mse(net, va.x, va.y)
    assert mse < 1e-20, f"{ghz} GHz: val MSE {mse:.3e}"
