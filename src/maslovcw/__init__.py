"""Maslov indices of bundle pairs over bordered surfaces.

Three routes to the same integer (or rational, over orbifold discs): the
winding number of det(B) along boundary loops in the Lagrangian
Grassmannian, the curvature integral (i/pi) tr F of an orthogonal unitary
connection, and branch-cover pullbacks divided by the covering degree.  The
package computes all three at desk scale and checks the equalities relating
them, including the index formulas for transversal polygon boundary data.
A collar connection's trace is -(i/2) d/dt arg det B of its boundary loop,
so its curvature integral tests a discrete Stokes identity on the winding's
own phase increments; the analytic built-in connections and the branch
covers are the independent routes (README lists which verify suite is which).
"""

from .errors import (
    DegenerateSpectrum,
    InvalidParameter,
    MaslovCWError,
    NonUnitaryConnection,
    NotTransverse,
    RankMismatch,
    SingularInput,
    Undersampled,
    UnknownName,
    Unrefined,
    ViolatedIdentity,
    ZeroSample,
)
from .grassmann import (
    LagrangianFrame,
    PositivePath,
    b_map,
    intersection_dim,
    positive_path,
    same_lagrangian,
)
from .loops import (
    BundlePairSpec,
    FrameLoop,
    generate_loop,
    load_loop,
    maslov_bundle_pair,
    maslov_loop,
    random_frame_loop,
    save_loop,
    winding,
)
from .matcore import takagi_symmetric_unitary
from .mesh import Mesh2D
from .connections import (
    ConnectionSpec,
    build_collar_connection,
    builtin_connection,
)
from .curvature import (
    CurvatureReport,
    DiscreteConnection,
    chern_weil_index,
    double_degree,
    edge_transports,
    orthogonality_defect,
)
from .orbifold import (
    BranchCover,
    ConePoint,
    OrbifoldDiscSpec,
    chen_ruan_correction,
    cover_multiplicativity,
    desing_index,
    mu_cw_orbifold,
    mu_pi,
    pullback_bundle_pair,
    verify_desingularization,
)
from .polygon import (
    TransversalBundleData,
    build_L_loop,
    fredholm_index,
    maslov_viterbo,
    mu_cw_polygon,
    mu_top,
)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"
