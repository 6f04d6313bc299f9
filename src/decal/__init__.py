"""Decision calibration for kernel-space loss families.

Predictors map contexts to finite spans of feature maps; losses live in the
same space, so expected losses are inner products the library never leaves.
`audit` estimates the decision calibration error with a closed-form witness,
`calibrate` removes it by iterative patching, `synth` supplies planted
instances and the paired indistinguishable worlds, and `experiments` turns
the guarantees into seeded desk-scale checks.  The top level re-exports the
quickstart names; everything else lives in the submodules.
"""

from .audit import audit, empirical_gap, random_loss_pool
from .calibrate import CalibConfig, run_calibration
from .kernel import KernelSpec
from .model import (
    Predictor,
    SimilarityBase,
    load_loss,
    load_predictor,
    loss_estimates,
    save_predictor,
    smooth_best_response,
)
from .synth import (
    AffineMap,
    ContextSpec,
    SyntheticSource,
    SynthSpec,
    make_piecewise_linear_loss,
    planted_bias_instance,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "CalibConfig",
    "ContextSpec",
    "KernelSpec",
    "Predictor",
    "SimilarityBase",
    "SyntheticSource",
    "SynthSpec",
    "audit",
    "empirical_gap",
    "load_loss",
    "load_predictor",
    "loss_estimates",
    "make_piecewise_linear_loss",
    "planted_bias_instance",
    "random_loss_pool",
    "run_calibration",
    "save_predictor",
    "smooth_best_response",
]
