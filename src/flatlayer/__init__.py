"""flatlayer: 3D acoustic scattering synthesis and flat-layer inverse reconstruction.

Synthesizes scattered-field data for a 3D inhomogeneous medium with a
spectral Born iteration, and reconstructs the inhomogeneity coefficient
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
    spectral_norm,
)
from .forward import (
    DivergenceError,
    ForwardResult,
    add_noise,
    born_iterate,
    interaction_spectral,
    scattered_data,
)
from .inverse import (
    XiExtraction,
    extract_xi_lsq,
    extract_xi_single,
    recompute_internal_field,
    solve_modes,
)
from .medium import (
    Bump,
    GreenKernelTable,
    Phantom,
    SourceSet,
    build_green_kernel,
    green_point,
    incident_field_spectral,
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
