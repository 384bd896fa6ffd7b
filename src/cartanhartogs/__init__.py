"""Cartan-Hartogs domains, their symplectic duals, and explicit global
Darboux maps, with a numerical verification battery."""

__version__ = "0.1.0"

from .capacity import (
    CapacityCertificate,
    ball_in_hartogs,
    capacity_certificate,
    dual_image_bounds,
    hartogs_in_cylinder,
    unit_ball_inequality,
)
from .errors import ConvergenceError, DomainError, ShapeError
from .forms import (
    det_dual_hessian,
    dual_hessian_min_eigs,
    hartogs_hessian,
    hermitian_to_twoform_matrix,
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
    potential_field,
    psi_inverse,
    psi_map_vec,
    sample_member_points,
    unit_ball_darboux,
)
from .jtsys import (
    KIND_POLYDISC,
    KIND_TYPE_I,
    DomainSpec,
    b_quarter_power_on_z,
    bergman_apply,
    frame_point,
    generic_norm,
    hyperbolic_space,
    isotropy_apply,
    log_norm_derivatives,
    make_domain,
    membership,
    norm_self,
    random_isotropy,
    singular_values,
    triple_product,
)
from .measures import (
    GennaioResult,
    MCEstimate,
    capital_f,
    capital_f_ratio,
    dual_flat_ratio_formula,
    duality_gap,
    duality_root,
    fit_genus,
    flat_volume_exact,
    gennaio_check,
    log_capital_f,
    mc_volume_dual,
    mc_volume_flat,
    selberg_quadrature,
    selberg_quadrature_auto,
)
