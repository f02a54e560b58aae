"""Approximate reflection operators over eigenvectors of unitaries.

Two routes to ||A |0>|xi> - |0> R_psi0 |xi>|| <= eps: repeated phase
estimation, and a Gaussian linear combination of unitary powers amplified
by two rounds of oblivious amplitude amplification. Both are simulated
in U's eigenbasis and verified against the exact rank-one reflection, with
resource ledgers for ancilla, query and gate counts. The LCU route is
verified in the two-dimensional subspace that oblivious amplitude
amplification keeps, from the scalar <0|W|0> on each eigenvector; the PEA
route from the Fejer kernel of each eigenphase, since its q registers stay
a product state. Both routes give their miss as ``miss(refl, lambdas)``.
"""

from .core_sim import (
    CircuitOp,
    ResourceFootprint,
    adjoint,
    apply_batch,
    op_matrix,
    unitarity_defect,
)
from .gaussian_kernel import (
    KernelParams,
    alpha_coeffs,
    kernel_value,
    phi_amplitudes,
    poisson_check,
    psi_amplitudes,
    select_params,
)
from .spectral_models import (
    EigenUnitary,
    GroverInstance,
    grover_unitary,
    hamiltonian_unitary,
    synth_unitary,
)
from .state_prep import (
    BOperator,
    QftSpec,
    build_B,
    build_B_hat,
    centered_qft,
    centering_circuit,
    qft,
    rotation_tree_prep,
)
from .lcu_reflector import (
    ReflectorA,
    SelectU,
    ancilla_reflection,
    build_A,
    build_W,
    build_reflector,
    build_select,
    miss,
    oaa_expansion_check,
    worst_case,
)
from .pea_reflector import (
    PeaParams,
    PeaReflector,
    build_A_pea,
    build_pea_reflector,
    build_W_pea,
    choose_pea_params,
    pea_block,
)
from .accounting import compare_scaling

__version__ = "0.1.0"
