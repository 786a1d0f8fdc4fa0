"""Reverse-mode autodiff core: tensors, tape, ops, Adam, checkpointing."""

from .adam import AdamState, adam_step
from .checkpoint import load_archive, save_archive
from .gradcheck import GradcheckFailure, gradcheck
from .ops import (
    DIFFERENTIABLE_OPS,
    add,
    concat,
    conv1d,
    conv2d,
    cross_entropy,
    gather_rows,
    log_abs,
    lstm_sequence,
    matmul,
    max_pool1d,
    max_pool2d,
    mean_pool,
    mul,
    mul_scalar,
    relu,
    reshape,
    segment_mean,
    sinc_kernel,
    slice_rows,
    softmax,
    squared_euclidean,
    sum_all,
)
from .tensor import Tape, Tensor, as_tensor, backward, checked_mode

__all__ = [
    "AdamState", "adam_step", "save_archive", "load_archive",
    "GradcheckFailure", "gradcheck",
    "DIFFERENTIABLE_OPS",
    "Tape", "Tensor", "as_tensor", "backward", "checked_mode",
    "add", "concat", "conv1d", "conv2d",
    "cross_entropy", "gather_rows", "log_abs", "lstm_sequence", "matmul", "max_pool1d", "max_pool2d",
    "mean_pool", "mul", "mul_scalar", "relu", "reshape",
    "segment_mean", "sinc_kernel", "slice_rows", "softmax",
    "squared_euclidean", "sum_all",
]
