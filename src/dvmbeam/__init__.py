"""Structured beamforming networks on fast delay-Vandermonde transforms."""

__version__ = "0.1.0"

from .complexity import (
    flops_counted_dense,
    flops_counted_structured,
    reduction_report,
    write_reduction_csv,
    write_reduction_json,
)
from .dvm import (
    DvmSpec,
    FactorChain,
    OpCounter,
    RecursiveDftChain,
    build_bluestein_chain,
    build_recursive_dft_chain,
    cis,
    fast_dvm_apply,
    scaled_dvm_dense,
)
from .network import (
    KIND_DENSE,
    KIND_STRUCTURED,
    Network,
    NetworkConfig,
    build_network,
    count_parameters,
    forward,
    init_from_dvm,
    load_network,
    save_network,
)
from .signals import (
    load_dataset,
    make_dataset,
    save_dataset,
    split_dataset,
    transform_alpha,
)
from .training import (
    OptimizerConfig,
    TrainingDiverged,
    backward,
    evaluate_mse,
    grad_check,
    mse_loss,
    optimizer_step,
    train,
)

__all__ = [
    "__version__",
    # fast transform
    "DvmSpec",
    "FactorChain",
    "OpCounter",
    "RecursiveDftChain",
    "build_bluestein_chain",
    "build_recursive_dft_chain",
    "cis",
    "fast_dvm_apply",
    "scaled_dvm_dense",
    # networks
    "KIND_DENSE",
    "KIND_STRUCTURED",
    "Network",
    "NetworkConfig",
    "build_network",
    "count_parameters",
    "forward",
    "init_from_dvm",
    "load_network",
    "save_network",
    # signal simulation
    "load_dataset",
    "make_dataset",
    "save_dataset",
    "split_dataset",
    "transform_alpha",
    # training
    "OptimizerConfig",
    "TrainingDiverged",
    "backward",
    "evaluate_mse",
    "grad_check",
    "mse_loss",
    "optimizer_step",
    "train",
    # complexity accounting
    "flops_counted_dense",
    "flops_counted_structured",
    "reduction_report",
    "write_reduction_csv",
    "write_reduction_json",
]
