"""defectgeo: exterior-calculus toolkit for teleparallel crystal-defect geometry.

Builds metric-affine geometric objects from user-defined fields, decomposes
them into defect densities (Burgers, Frank, point-defect, scalar), verifies
the structure-equation identities and kinematic balance laws, and evaluates
elastic quantities and the quadratic defect free energy.
"""

from .defects import (
    DefectFields,
    FRANK_SCALE,
    NonmetricityPieces,
    TorsionPieces,
    extract_defects,
    extract_from_tensors,
    nonmetricity_pieces,
    nonmetricity_second_trace,
    nonmetricity_trace,
    reconstruct_defect_geometry,
    reconstruct_nonmetricity,
    reconstruct_torsion,
    torsion_pieces,
    torsion_traces,
)
from .elasticity import (
    DeformationMap,
    MaterialConstants,
    StrainState,
    StressState,
    cauchy_motion_residual,
    deformation_gradients,
    deformation_rate,
    euler_strain,
    isotropic_stress,
    mass_conservation_residual,
    stress_from_elasticity_tensor,
    volume_relation_residual,
)
from .energy import (
    Couplings,
    MappedCouplings,
    dislocation_energy_coefficient,
    lagrangian_form,
    lagrangian_vector,
    map_couplings,
    quadratic_invariants,
    total_free_energy,
    total_free_energy_estimate,
)
from .errors import (
    AnisotropyNotSupported,
    DefectGeoError,
    DegreeOverflow,
    DerivativeDepthExceeded,
    EvaluationError,
    InvalidMaterial,
    NewtonFailure,
    ParseError,
    ScenarioError,
    SingularDeformation,
    SingularGauge,
    SingularTriad,
)
from .expressions import differentiate, parse_expr
from .fields import (
    FormField,
    NumericFormField,
    Point,
    SymbolicFormField,
    VectorField,
    constant_field,
    curl,
    divergence,
    exterior_derivative,
    grad,
    hodge,
    interior,
    lie_derivative,
    one_form_to_vector,
    scalar_field,
    symbolic,
    time_derivative,
    wedge,
    zero_field,
)
from .forms import KForm
from .geometry import (
    CoFrame,
    GaugeField,
    TensorFormField,
    bianchi_residuals,
    connection_with,
    contortion,
    covariant_exterior_derivative,
    curvature,
    curvature_split_residual,
    defect_one_form,
    levi_civita_connection,
    nonmetricity,
    pure_gauge_connection,
    torsion,
    transform_coframe,
    transform_connection,
    transform_tensor,
)
from .kinematics import (
    ConsistencyReport,
    ExtraMatterReport,
    bianchi_consistency,
    disclination_balance_tensor,
    disclination_point_balance,
    dislocation_balance,
    extra_matter,
)
from .scenario import Numerics, Scenario, parse_scenario, parse_scenario_file

__version__ = "0.1.0"
