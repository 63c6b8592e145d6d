"""Scenario file parsing: defaults, round trips, and error reporting."""

import numpy as np
import pytest

from defectgeo.errors import ScenarioError
from defectgeo.expressions import parse_expr
from defectgeo.fields import Point
from defectgeo.scenario import parse_scenario

MINIMAL = """
[numerics]
tolerance = 1e-8
"""


def test_minimal_scenario_defaults():
    s = parse_scenario(MINIMAL)
    assert s.numerics.tolerance == 1e-8
    assert s.numerics.grid_n == 9
    assert (s.numerics.grid_min, s.numerics.grid_max) == (-1.0, 1.0)
    assert s.coframe.is_identity
    assert s.gauge is None
    p = Point(0.3, 0.4, 0.5)
    assert s.defects.burgers.evaluate(p).max_abs() == 0.0
    assert s.defects.scalar.evaluate(p).max_abs() == 0.0


def test_empty_scenario_is_all_defaults():
    s = parse_scenario("")
    assert s.numerics.tolerance == 1e-6
    assert not s.has("defects")


def test_defect_fields_round_trip():
    s = parse_scenario(
        """
[defects]
rho = "0.5"
omega1 = "sin(2*z)"
omega2 = "cos(2*z)"
omega3 = "0"
"""
    )
    p = Point(0.1, 0.2, 0.3)
    got = s.defects.frank.evaluate(p)
    assert got.components[0] == pytest.approx(np.sin(0.6))
    assert got.components[1] == pytest.approx(np.cos(0.6))
    assert s.defects.scalar.evaluate(p).components[0] == 0.5


def test_coframe_and_gauge_sections():
    s = parse_scenario(
        """
[coframe]
h22 = "x"

[gauge]
g11 = "cos(x)"
g12 = "-sin(x)"
g21 = "sin(x)"
g22 = "cos(x)"
"""
    )
    assert not s.coframe.is_identity
    p = Point(2.0, 0.5, 0.5)
    assert s.coframe.e(2).evaluate(p).components[1] == 2.0
    assert s.gauge is not None
    assert s.gauge.entry(1, 1).evaluate(p).components[0] == pytest.approx(np.cos(2.0))


def test_deformation_and_material():
    s = parse_scenario(
        """
[deformation]
kind = inverse
X1 = "x/2"
X2 = "y/2"
X3 = "z/2"

[material]
lambda = 1.0
mu = 1.0
"""
    )
    assert s.deformation is not None
    assert s.material.lam == 1.0
    vals = [f.evaluate(Point(1.0, 2.0, 3.0)).components[0] for f in s.deformation.inverse_fields()]
    assert vals == [0.5, 1.0, 1.5]


def test_couplings_defaults():
    s = parse_scenario("[couplings]\nkappa2 = 2.5\n")
    assert s.couplings.kappa2 == 2.5
    assert s.couplings.kappa1 == 0.0


def test_couplings_absent_without_the_section():
    assert parse_scenario("").couplings is None


def test_duplicate_section_reports_both_lines():
    text = "[defects]\nrho = \"1\"\n\n[numerics]\ntolerance = 1e-6\n\n[defects]\nb1 = \"1\"\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.lines == (1, 7)


def test_duplicate_key_reports_both_lines():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('[defects]\nrho = "1"\nrho = "2"\n')
    assert err.value.lines == (2, 3)


def test_unknown_section():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[turbulence]\n")
    assert err.value.lines == (1,)


def test_unknown_key():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[defects]\nspin = \"1\"\n")
    assert err.value.lines == (2,)


def test_unquoted_expression_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[defects]\nrho = 1+x\n")
    assert err.value.lines == (2,)


def test_bad_expression_reports_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('[defects]\nrho = "2*+x"\n')
    assert err.value.lines == (2,)


def test_key_outside_section():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('rho = "1"\n')
    assert err.value.lines == (1,)


def test_bad_number():
    with pytest.raises(ScenarioError):
        parse_scenario("[material]\nmu = soft\n")


def test_missing_deformation_component():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('[deformation]\nX1 = "x"\n')
    assert "X2" in str(err.value)


def test_bad_deformation_kind():
    with pytest.raises(ScenarioError):
        parse_scenario('[deformation]\nkind = sideways\nX1 = "x"\nX2 = "y"\nX3 = "z"\n')


def test_numerics_validation():
    with pytest.raises(ScenarioError):
        parse_scenario("[numerics]\ntolerance = -1.0\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[numerics]\ngrid_n = 1\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[numerics]\ngrid_min = 2.0\ngrid_max = 1.0\n")


@pytest.mark.parametrize(
    "numerics,message",
    [
        ("tolerance = -1e-9", "tolerance must be non-negative (line 3)"),
        ("grid_n = 1", "grid_n must be between 2 and 512 (line 3)"),
        ("grid_min = 1.0\ngrid_max = 1.0", "grid_min must be below grid_max (lines 3, 4)"),
        # linspace would turn every check point into nan
        ("grid_min = -1e308\ngrid_max = 1e308", "grid_max - grid_min must be a finite number (lines 3, 4)"),
    ],
)
def test_numerics_out_of_range_name_their_lines(numerics, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(f"[numerics]\n# ranges\n{numerics}\n")
    assert str(err.value) == message


def test_fd_step_is_an_unknown_key():
    # no command differentiates numerically, so the file has no step to set
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[numerics]\n# steps\nfd_step = 1e-4\n")
    assert str(err.value) == "unknown key 'fd_step' in [numerics] (line 3)"


def test_grid_n_must_be_integral():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[numerics]\n# grid\ngrid_n = 9.9\n")
    assert str(err.value) == "key 'grid_n' in [numerics] must be an integer, got '9.9' (line 3)"
    grid_n = parse_scenario("[numerics]\ngrid_n = 9.0\n").numerics.grid_n
    assert grid_n == 9 and isinstance(grid_n, int)


def test_zero_tolerance_is_accepted():
    assert parse_scenario("[numerics]\ntolerance = 0\n").numerics.tolerance == 0.0


def test_comments_and_blank_lines():
    s = parse_scenario(
        """
# full-line comment
[numerics]   # a comment after a section header
tolerance = 1e-7  # trailing comment

[defects]
b1 = "0.3*y"     # a comment after a quoted expression
"""
    )
    assert s.numerics.tolerance == 1e-7
    assert s.defects.burgers.evaluate(Point(0.0, 2.0, 0.0)).components[0] == pytest.approx(0.6)


def test_defects_against_nonidentity_coframe():
    # components are given in the orthonormal frame: b = e^1 = h^1_b dx^b
    s = parse_scenario(
        """
[coframe]
h11 = "1+x"

[defects]
b1 = "1"
"""
    )
    p = Point(0.5, 0.0, 0.0)
    assert s.defects.burgers.evaluate(p).components[0] == pytest.approx(1.5)


def test_identity_coframe_covector_keeps_the_parsed_nodes():
    s = parse_scenario(
        """
[defects]
b1 = "x*y + sin(z)"
b2 = "2.5"
b3 = "exp(-x)/(1+y^2)"
"""
    )
    assert s.coframe.is_identity
    wanted = [parse_expr(text) for text in ("x*y + sin(z)", "2.5", "exp(-x)/(1+y^2)")]
    assert all(got is want for got, want in zip(s.defects.burgers.comps, wanted, strict=True))
