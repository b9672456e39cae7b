"""Exact-arithmetic verification toolkit for heavenly structures.

Scalar fields are rational-function expressions over chart coordinates,
evaluated by truncated Taylor (jet) arithmetic so that derivative residuals
are exact rationals.  On top of that sit the second/first potential
residuals, null tetrads and curvature, the recursion operator and its chains,
spectral-parameter series and the residue transform, the extended flow
hierarchy, and the boundary symplectic pairing.
"""

from .jetcore import (
    Jet,
    ParseError,
    Point,
    PoleError,
    ScalarField,
    field_jets,
    jet_of,
    jets_of,
    parse_expression,
    partial,
    point,
)
from .polynomials import Poly
from .tetrads import (
    FirstPotential,
    LaxPair,
    MetricField,
    SecondPotential,
    SigmaForms,
    Tetrad,
    first_heavenly_residual,
    lax_commutator_residual,
    lax_pair_omega,
    lax_pair_theta,
    lax_step_from_jets,
    lax_step_residual,
    linearized_from_jets,
    linearized_second_residual,
    metric_from_tetrad,
    plane_wave_tetrad,
    second_heavenly_residual,
    sigma_forms,
    tetrad_from_omega,
    tetrad_from_theta,
)
from .curvature import (
    CurvatureReport,
    christoffel,
    ricci,
    riemann,
    verify_asd_vacuum,
    weyl_spinors,
)
from .recursion import (
    CoeffTable,
    KillingChain,
    chain_residual_maxima,
    coeff_A,
    coeff_B,
    flat_phi,
    gauge_symmetry_perturbation,
    killing_chain_flat,
    recursion_step_poly,
    recursion_step_st,
    st_potential,
    st_psi,
    wave_residual,
    zrm_recursion,
)
from .twistor import (
    LambdaSeries,
    TwistorCurve,
    flat_twistor_curve,
    lax_annihilation_residual,
    penrose_residue_transform,
    recursion_on_twistor,
    series_solve_omega,
    st_twistor_curve,
)
from .hierarchy import (
    ExtendedPotential,
    ExtendedVectorField,
    SpinorVector,
    hierarchy_residual,
    lax_compat_residual,
    lax_field,
    paraconformal_eval,
    poisson_yx,
    sato_flow_residual,
    slice_metric,
    summed_lax_identity_residual,
    truncated_omega,
)
from .symplectic import (
    BoundaryBox,
    ThreeForm,
    hodge_star_d,
    lagrangian_density_first,
    lagrangian_density_second,
    omega_k,
    symplectic_pair,
    symplectic_pair_curved,
)
from .catalog import CatalogEntry, load_catalog
from .sampling import sample_points

__version__ = "0.1.0"
