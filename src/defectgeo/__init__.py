"""defectgeo: exterior-calculus toolkit for teleparallel crystal-defect geometry.

Builds metric-affine geometric objects from user-defined fields, decomposes
them into defect densities (Burgers, Frank, point-defect, scalar), verifies
the structure-equation identities and kinematic balance laws, and evaluates
elastic quantities and the quadratic defect free energy.

The names in `__all__` are resolved on first use (PEP 562): importing the
package, or one of its submodules such as `defectgeo.cli`, loads only the
submodules that code actually reaches.
"""

import importlib

__version__ = "0.1.0"

#: the names each submodule exports through the package
_EXPORTS = {
    "defects": "DefectFields FRANK_SCALE NonmetricityPieces extract_defects extract_from_tensors"
    " nonmetricity_pieces nonmetricity_second_trace nonmetricity_trace"
    " reconstruct_defect_geometry reconstruct_nonmetricity reconstruct_torsion torsion_traces",
    "elasticity": "DeformationMap MaterialConstants StrainState StressState cauchy_motion_residual"
    " deformation_gradients euler_strain isotropic_stress mass_conservation_residual"
    " stress_from_elasticity_tensor volume_relation_residual",
    "energy": "Couplings MappedCouplings dislocation_energy_coefficient lagrangian_form"
    " lagrangian_vector map_couplings quadratic_invariants total_free_energy"
    " total_free_energy_estimate",
    "errors": "AnisotropyNotSupported DefectGeoError DegreeOverflow DerivativeDepthExceeded"
    " EvaluationError InvalidMaterial NewtonFailure ParseError ScenarioError SingularDeformation"
    " SingularGauge SingularTriad",
    "expressions": "differentiate parse_expr",
    "fields": "FormField NumericFormField Point SymbolicFormField VectorField constant_field"
    " divergence exterior_derivative hodge interior scalar_field symbolic time_derivative"
    " wedge zero_field",
    "forms": "KForm",
    "geometry": "CoFrame GaugeField TensorFormField bianchi_residuals connection_with contortion"
    " covariant_exterior_derivative curvature curvature_split_residual defect_one_form"
    " levi_civita_connection nonmetricity pure_gauge_connection torsion transform_coframe"
    " transform_connection transform_tensor",
    "kinematics": "ExtraMatterReport curvature_identity_sides disclination_point_balance"
    " dislocation_balance extra_matter",
    "scenario": "Numerics Scenario parse_scenario parse_scenario_file",
}
#: the submodule that defines each exported name
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # an unknown name must raise AttributeError: `from defectgeo import cli`
    # then falls back to importing the submodule
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
