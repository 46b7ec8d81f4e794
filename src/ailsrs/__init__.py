"""Imitation learning for linear policies: random-search policy updates
driven by a least-squares-GAN discriminator reward, plus the expert
training, demonstration recording and behavior cloning around it.
"""

import os
import sys
import warnings

# One BLAS thread, set before numpy loads: threaded OpenBLAS rounds the
# discriminator's matmuls differently, so artifacts would follow the core count.
_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in _PINS):
    warnings.warn("numpy was imported before ailsrs, so the one-thread BLAS pin "
                  "cannot take effect; import ailsrs first", RuntimeWarning, 2)
os.environ.update(dict.fromkeys(_PINS, "1"))

from .ars import ArsConfig, ars_update, sample_directions
from .demo_io import (TrajectorySet, load_policy, load_trajectories, record,
                      save_policy, save_trajectories)
from .discriminator import MlpDiscriminator, disc_init, disc_train, lsgan_grad
from .envs import (EnvSpec, env_names, evaluate_policy, make_env, riccati_optimal,
                   rollout)
from .numerics import AdamState, Rng, adam_step
from .policy import LinearPolicy, ObservationNormalizer, bc_closed_form
from .trainer import (MetricsRow, TrainerConfig, return_target, search,
                      train_ailsrs, train_expert, write_metrics)

__all__ = [
    "AdamState", "ArsConfig", "EnvSpec", "LinearPolicy", "MetricsRow",
    "MlpDiscriminator", "ObservationNormalizer", "Rng", "TrainerConfig",
    "TrajectorySet", "adam_step", "ars_update", "bc_closed_form",
    "disc_init", "disc_train", "env_names", "evaluate_policy", "load_policy",
    "load_trajectories", "lsgan_grad", "make_env", "record", "return_target",
    "riccati_optimal", "rollout", "sample_directions", "save_policy",
    "save_trajectories", "search", "train_ailsrs", "train_expert",
    "write_metrics",
]
