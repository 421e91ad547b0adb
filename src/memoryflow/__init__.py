"""Numerical toolkit for evolution equations with fading memory.

Past-history and minimal-state realizations of linear viscoelastic memory,
spectral Galerkin wave models, energy diagnostics, and attractor probes.
"""

from .attractors import (
    PointCloud,
    attraction_rate,
    box_counting_dim,
    cloud_from_states,
    hausdorff_semidist,
)
from .evolution import (
    BlowUpError,
    ModelOperators,
    Trajectory,
    integrate,
    integrate_ensemble,
    intertwine_residual,
    reconstruct_eta,
    reconstruct_xi,
)
from .kernels import (
    KernelError,
    MemoryKernel,
    check_dafermos,
    check_nec,
    flatness_rate,
    load_kernel_file,
    make_exponential_kernel,
    make_flatzone_kernel,
    make_jump_exponential_kernel,
    make_tabulated_kernel,
    split_sets,
    truncated_kernel,
)
from .spaces import (
    ExtendedVector,
    HistoryField,
    ModalVector,
    StateField,
    big_l_map,
    lambda_identity_residual,
    lambda_map,
    norm_H,
)
from .viscoelastic import (
    GalerkinModel,
    assemble,
    condition_asso_probe,
    energy_sigma,
    hypothesis_probe_suite,
    lk_split,
    load_model_file,
    make_model,
    phi_functional,
)

__version__ = "0.1.0"
