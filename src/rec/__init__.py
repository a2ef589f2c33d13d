"""Lifelong learning with consolidation penalties, function-preserving network
expansion searched by a REINFORCE controller, and distillation back to a fixed
model size."""

from .netcore import Arch, Batch, DenseNet, init_network, forward, loss_ce, backward, evaluate
from .regularize import PenaltyConfig, estimate_fisher, mwc_loss, train_task
from .transform import DeeperAction, WiderAction, apply_actions
from .controller import SearchConfig, init_policy, reward_transform, search_child
from .distill import CompressConfig, compress, kd_loss
from .lifelong import (METHODS, MethodConfig,
                       gen_permuted_tasks, gen_rotated_tasks, gen_split_tasks,
                       method_config, run_sequence)

__all__ = [name for name in dir() if not name.startswith("_")]
