"""Cartan-Hartogs domains, their symplectic duals, and explicit global
Darboux maps, with a numerical verification battery."""

__version__ = "0.1.0"

from .capacity import (
    CapacityCertificate,
    ball_in_hartogs,
    capacity_certificate,
    dual_image_bounds,
    hartogs_in_cylinder,
)
from .errors import ConvergenceError, DomainError, ShapeError
from .forms import (
    det_dual_hessian,
    dual_hessian_min_pivot,
    hartogs_hessian,
)
from .hartogs import (
    HartogsSpec,
    ch_member_vec,
    darboux_jacobian,
    hartogs_isotropy_apply,
    lift_embedding,
    make_hartogs,
    phi_inverse,
    phi_map_vec,
    psi_inverse,
    psi_map_vec,
    sample_member_points,
    unit_ball_darboux,
)
from .jtsys import (
    KIND_POLYDISC,
    KIND_TYPE_I,
    DomainSpec,
    frame_point,
    isotropy_apply,
    jordan_frame,
    log_norm,
    log_norm_derivatives,
    make_domain,
    membership,
    random_isotropy,
    spectral_norm,
)
from .measures import (
    GennaioResult,
    capital_f,
    capital_f_ratio,
    dual_flat_ratio_formula,
    dual_volume_quadrature,
    duality_gap,
    duality_root,
    fit_genus,
    flat_volume_quadrature,
    gennaio_check,
    log_capital_f,
    selberg_quadrature,
)
