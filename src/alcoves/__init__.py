"""Exact alcove geometry, affine Weyl groups, loop-group centralizer
combinatorics, and a numeric matrix Weierstrass p-function."""

from .alcove import (
    AffineRoot,
    Face,
    FaceCategory,
    FacetKey,
    eval_affine_root,
    faces_of_alcove,
    facet_of,
    fundamental_alcove,
    verify_ver_isomorphism,
)
from .centralizer import (
    CentralizerData,
    DoubleAffineRoot,
    ExpPoint,
    GaugePoint,
    MatrixShape,
    centralizer_elliptic,
    centralizer_face,
    double_affine_centralizer,
    exp_point,
    gauge_centralizer_circle,
    matrix_shape,
    subsystem_type,
)
# the parabolic() operation itself stays on the submodule so that
# `alcoves.parabolic` keeps referring to the module
from .parabolic import (
    ParabolicData,
    restriction_diagram,
)
from .rootdata import (
    CartanType,
    InvalidCartanType,
    RootSystem,
    WeylElement,
    build_root_system,
    reflect,
    weyl_group,
)
from .weierstrass import (
    Lattice,
    cubic_report,
    eisenstein,
    eisenstein_truncated,
    wp_matrix,
    wp_prime_matrix,
)
from .weylaff import (
    AffineWeylElement,
    FiniteSubgroup,
    chart_overlap,
    reduce_to_alcove,
    stabilizer_of_face,
    stabilizer_of_point,
    star_contains,
    verify_cover,
    verify_star_intersection,
)

__version__ = "0.1.0"
