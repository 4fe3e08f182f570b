"""Learnable cost volumes over a Cayley-parameterized SPD kernel."""

from .cayley import (
    DiagParams,
    NotInSOStarError,
    NumericalError,
    OrthogonalMatrix,
    SkewParams,
    SOStarCheck,
    cayley_forward,
    cayley_inverse,
    dlambda_dt,
    is_in_so_star,
    lambda_from_t,
    pack_skew,
    so_star_path,
    t_from_lambda,
    unpack_skew,
)
from .costvolume import (
    CostVolume,
    FeatureMap,
    FlowField,
    cost_volume_bilinear,
    decode_flow_argmax,
    epe,
    fl_all,
    learnable_cost_volume,
    read_tensor,
    vanilla_cost_volume,
    write_tensor,
    wssd,
)
from .harness import (
    ExperimentResult,
    PerturbSpec,
    SyntheticSpec,
    generate,
    matching_loss,
    perturb,
    report,
    run_experiment,
    run_gradcheck,
    run_sweep,
    train_kernel,
)
from .kernel import (
    KernelGradient,
    SPDKernel,
    assemble_kernel,
    identity_kernel,
    kernel_factor_grads,
    kernel_grad,
    load_kernel,
    param_count,
    save_kernel,
    whitening_pca,
    whitening_zca,
)
from .optim import (
    OptimizerConfig,
    cayley_sgd_step,
    finite_difference_oracle,
    matrix_inv_sqrt,
    step_benchmark,
    stiefel_project,
    stiefel_retract,
    stiefel_sgd_step,
)

__version__ = "0.1.0"
