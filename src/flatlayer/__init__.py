"""flatlayer: 3D acoustic scattering synthesis and flat-layer inverse reconstruction.

Synthesizes scattered-field data for a 3D inhomogeneous medium by a GMRES
solve on the medium's support, and reconstructs the inhomogeneity coefficient
from measurements in a flat receiver layer by reducing the problem to
per-mode 1D first-kind integral equations solved with regularization.
"""

from .fields import (
    ComplexField,
    Grid3D,
    GridConfig,
    SpectralField,
    l2_norm,
    make_grids,
)
from .forward import (
    ForwardResult,
    SupportOperator,
    add_noise,
    born_iterate,
    dense_fits,
    scattered_data,
    support_interaction,
)
from .inverse import (
    XiExtraction,
    XiSums,
    extract_xi_lsq,
    recompute_internal_field,
    solve_modes,
)
from .medium import (
    Bump,
    GreenKernelTable,
    Phantom,
    SourceSet,
    Support,
    build_green_kernel,
    green_point,
    incident_field_nodes,
    incident_field_spectral,
    node_kernel,
)
from .metrics import (
    AccuracyCurve,
    BumpLocalization,
    TimingRecord,
    localization_report,
    slice_relative_error,
    timing_fit,
)
from .regularizers import RegularizerConfig
from .spectral import ModeLattice, forward_xy, inverse_xy

__version__ = "0.1.0"
