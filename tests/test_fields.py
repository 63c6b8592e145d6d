"""Field calculus: exterior/time derivatives and the vector isomorphisms."""

import numpy as np
import pytest

from defectgeo import expressions as ex
from defectgeo import fields as ff
from defectgeo.errors import DerivativeDepthExceeded, EvaluationError
from defectgeo.fields import (
    NumericFormField,
    Point,
    SymbolicFormField,
    VectorField,
    divergence,
    exterior_derivative,
    hodge,
    interior,
    matrix_inverse,
    substitute_basis,
    symbolic,
    time_derivative,
    wedge,
    zero_field,
)
from defectgeo.forms import KForm

from util import (
    fd_partial,
    flat_curl,
    flat_grad,
    random_form_field,
    random_points,
    random_scalar_field,
)

rng = np.random.default_rng(314)


def numeric_from(field, fd_step=1e-4):
    """Wrap a symbolic field as an opaque finite-difference evaluator."""
    return NumericFormField(field.degree, field.evaluate_batch, fd_step=fd_step)


def test_d_of_coordinate():
    d = exterior_derivative(symbolic(0, "x"))
    assert d.evaluate(Point(0.3, -0.7, 0.1)).allclose(KForm.basis(1))


def test_d_product_rule_on_basis():
    d = exterior_derivative(symbolic(1, "0", "x", "0"))
    assert d.evaluate(Point(5.0, 2.0, -1.0)).allclose(KForm.basis(1, 2))


def test_dd_zero_symbolic():
    pts = random_points(rng, 100)
    worst = 0.0
    for _ in range(100):
        field = random_scalar_field(rng) if rng.uniform() < 0.5 else random_form_field(rng, 1)
        dd = exterior_derivative(exterior_derivative(field))
        for p in pts[:3]:
            worst = max(worst, dd.evaluate(p).max_abs())
    assert worst <= 1e-9


def test_dd_zero_finite_difference():
    pts = random_points(rng, 20)
    worst = 0.0
    for _ in range(5):
        field = numeric_from(random_scalar_field(rng), fd_step=1e-4)
        dd = exterior_derivative(exterior_derivative(field))
        for p in pts[:4]:
            worst = max(worst, dd.evaluate(p).max_abs())
    assert worst <= 1e-5


def test_dd_zero_on_explicit_example():
    field = symbolic(0, "sin(x*y)")
    dd = exterior_derivative(exterior_derivative(field))
    for p in random_points(rng, 100):
        assert dd.evaluate(p).max_abs() <= 1e-9


def test_d_top_degree_is_silent_zero():
    top = symbolic(3, "x*y*z")
    d = exterior_derivative(top)
    assert d.degree == 3
    assert d.evaluate(Point(1.0, 2.0, 3.0)).max_abs() == 0.0


def test_d_leibniz_rule():
    pts = random_points(rng, 10)
    for _ in range(5):
        alpha = random_form_field(rng, 1)
        beta = random_form_field(rng, 1)
        lhs = exterior_derivative(wedge(alpha, beta))
        rhs = wedge(exterior_derivative(alpha), beta) - wedge(alpha, exterior_derivative(beta))
        for p in pts:
            assert (lhs.evaluate(p) - rhs.evaluate(p)).max_abs() <= 1e-10


def test_finite_difference_depth_cap():
    field = numeric_from(symbolic(0, "sin(x)"))
    d1 = exterior_derivative(field)
    d2 = exterior_derivative(hodge(d1))
    d3 = exterior_derivative(hodge(d2))
    assert d3.fd_depth == 3
    with pytest.raises(DerivativeDepthExceeded):
        exterior_derivative(d3)


def test_time_derivative_structural_zero():
    static = symbolic(1, "x*y", "z", "1")
    dt = time_derivative(static)
    assert all(c is not None for c in dt.comps)
    assert dt.evaluate(Point(0.5, 0.5, 0.5, 2.0)).max_abs() == 0.0
    moving = symbolic(0, "t*x")
    assert time_derivative(moving).evaluate(Point(2.0, 0, 0, 9.0)).components[0] == 2.0


def test_grad_example():
    g = VectorField.of(*flat_grad(symbolic(0, "x^2+y")))
    vals = g.evaluate(Point(1.5, 2.0, -3.0))
    assert np.allclose(vals, [3.0, 1.0, 0.0])


def test_curl_of_gradient_vanishes():
    phi = symbolic(0, "ln(1+x^2)")
    cg = flat_curl(flat_grad(phi))
    for p in random_points(rng, 100):
        assert max(abs(c.evaluate(p).components[0]) for c in cg) <= 1e-12


def test_curl_beltrami_field():
    k = 2.0
    w = VectorField.of(symbolic(0, "sin(2*z)"), symbolic(0, "cos(2*z)"), symbolic(0, "0"))
    cw = VectorField.of(*flat_curl(w.comps))
    for p in random_points(rng, 20):
        got = cw.evaluate(p)
        want = k * w.evaluate(p)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_vector_operators_match_stencils():
    pts = random_points(rng, 10)
    f = random_scalar_field(rng)
    w = VectorField.of(
        random_scalar_field(rng), random_scalar_field(rng), random_scalar_field(rng)
    )
    g = VectorField.of(*flat_grad(f))
    c = VectorField.of(*flat_curl(w.comps))
    dv = divergence(w)
    for p in pts:
        fd_grad = [fd_partial(lambda q, v=var: f.evaluate(q).components[0], p, var) for var in "xyz"]
        assert np.max(np.abs(g.evaluate(p) - fd_grad)) <= 1e-6

        def comp(q, i):
            return w.comps[i].evaluate(q).components[0]

        fd_curl = [
            fd_partial(lambda q: comp(q, 2), p, "y") - fd_partial(lambda q: comp(q, 1), p, "z"),
            fd_partial(lambda q: comp(q, 0), p, "z") - fd_partial(lambda q: comp(q, 2), p, "x"),
            fd_partial(lambda q: comp(q, 1), p, "x") - fd_partial(lambda q: comp(q, 0), p, "y"),
        ]
        assert np.max(np.abs(c.evaluate(p) - fd_curl)) <= 1e-6
        fd_div = sum(fd_partial(lambda q, i=i, var=var: comp(q, i), p, var) for i, var in enumerate("xyz"))
        assert abs(dv.evaluate(p).components[0] - fd_div) <= 1e-6


def test_symbolic_numeric_mixing():
    sym = symbolic(1, "x", "0", "0")
    num = numeric_from(symbolic(1, "0", "y", "0"))
    total = sym + num
    assert type(total) is SymbolicFormField
    assert (total.fd_step, total.fd_depth) == (num.fd_step, 0) == (1e-4, 0)
    v = total.evaluate(Point(2.0, 3.0, 4.0))
    assert np.allclose(v.components, [2.0, 3.0, 0.0])


def test_batch_matches_pointwise():
    field = random_form_field(rng, 2)
    pts = random_points(rng, 17)
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    zs = np.array([p.z for p in pts])
    batch = field.evaluate_batch(xs, ys, zs).components
    for i, p in enumerate(pts):
        assert np.allclose(batch[:, i], field.evaluate(p).components)


def test_vector_field_evaluates_its_components_in_one_walk(monkeypatch):
    v = VectorField.of(symbolic(0, "x*y"), symbolic(0, "sin(z) + 2"), symbolic(0, "x^3 - t"))
    walks = []
    evaluate_many = ex.evaluate_many
    monkeypatch.setattr(ex, "evaluate_many", lambda *args: walks.append(args) or evaluate_many(*args))
    for p in random_points(rng, 5, t=0.4) + [Point(-0.0, 0.0, -0.0)]:
        walks.clear()
        got = v.evaluate(p)
        assert len(walks) == 1
        want = [c.evaluate(p).components[0] for c in v.comps]
        assert got.shape == (3,)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_wedge_rejects_overflow_at_field_level():
    from defectgeo.errors import DegreeOverflow

    with pytest.raises(DegreeOverflow):
        wedge(symbolic(2, "1", "0", "0"), symbolic(2, "0", "1", "0"))


def test_zero_field_and_constant_field():
    z = zero_field(2)
    assert z.evaluate(Point(1, 2, 3)).max_abs() == 0.0
    c = ff.constant_field(KForm.basis(1, 3) * 4.0)
    assert c.evaluate(Point(9, 9, 9)).allclose(4.0 * KForm.basis(1, 3))


def counting(field):
    """`field.evaluate_batch` as an opaque callable, with a record of the shapes of its calls."""
    calls = []

    def func(*coords):
        calls.append([np.shape(c) for c in coords])
        return field.evaluate_batch(*coords)

    return func, calls


def test_numeric_callable_runs_once_per_walk_for_all_components():
    func, calls = counting(symbolic(1, "x*y", "sin(z)", "x^2"))
    field = NumericFormField(1, func)
    xs = np.linspace(-1.0, 1.0, 7)
    field.evaluate_batch(xs, 0.5 * xs, 0.25 * xs)
    assert calls == [[(7,)] * 4]  # t as well, broadcast to the points
    calls.clear()
    exterior_derivative(field).evaluate_batch(xs, 0.5 * xs, 0.25 * xs)
    # one central difference along each of x, y, z, shared by the components
    assert calls == [[(7,)] * 4] * 6
    calls.clear()
    field.evaluate(Point(0.1, 0.2, 0.3))
    assert calls == [[(1,)] * 4]


def test_numeric_callable_runs_once_per_block():
    func, calls = counting(symbolic(0, "x*y - z"))
    xs = np.linspace(-1.0, 1.0, ff.BLOCK + 1)
    values = NumericFormField(0, func).evaluate_batch(xs, xs, xs).components[0]
    assert calls == [[(ff.BLOCK,)] * 4, [(1,)] * 4]
    assert np.array_equal(values, xs * xs - xs)


def test_derivative_of_mixed_field_is_exact_on_the_symbolic_part():
    zero = NumericFormField(0, lambda *coords: KForm.scalar(0.0))
    d = exterior_derivative(symbolic(0, "x^3") + zero)
    for p in random_points(rng, 10):
        assert np.array_equal(d.evaluate(p).components, [3.0 * p.x**2, 0.0, 0.0])


def test_numeric_field_errors():
    for step in (0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            NumericFormField(0, lambda *coords: KForm.scalar(1.0), fd_step=step)
    with pytest.raises(TypeError, match="expected KForm"):
        NumericFormField(0, lambda *coords: 1.0).evaluate(Point(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="declared 0"):
        NumericFormField(0, lambda *coords: KForm.basis(1)).evaluate(Point(0.0, 0.0, 0.0))


def test_algebra_on_a_numeric_operand_builds_fields_that_difference_its_leaves():
    h = 1e-3
    phi = symbolic(0, "sin(x)*exp(y) + x*z^2")
    alpha = symbolic(1, "x*y", "sin(z)", "x^2*z")
    num0, num1 = numeric_from(phi, fd_step=h), numeric_from(alpha, fd_step=h)
    m = [[symbolic(0, "2+x*y"), symbolic(0, "z"), symbolic(0, "0")],
         [symbolic(0, "0"), symbolic(0, "1+y^2"), symbolic(0, "x")],
         [symbolic(0, "y"), symbolic(0, "0"), symbolic(0, "3")]]
    num_m = [[num0 if (i, j) == (0, 1) else m[i][j] for j in range(3)] for i in range(3)]
    sym_m = [[phi if (i, j) == (0, 1) else m[i][j] for j in range(3)] for i in range(3)]
    cases = [
        (wedge(num1, num0), wedge(alpha, phi)),
        (hodge(num1), hodge(alpha)),
        (interior(2, num1), interior(2, alpha)),
        (substitute_basis(num1, m), substitute_basis(alpha, m)),
        (substitute_basis(alpha, num_m), substitute_basis(alpha, sym_m)),
        (matrix_inverse(num_m)[1][0], matrix_inverse(sym_m)[1][0]),
    ]
    for got, exact in cases:
        assert type(got) is SymbolicFormField
        assert (got.fd_step, got.fd_depth) == (h, 0)
        d_got, d_exact = exterior_derivative(got), exterior_derivative(exact)
        assert d_got.fd_depth == 1
        for p in random_points(rng, 5, lo=-0.5, hi=0.5):
            # central differences: error O(h^2) times third derivatives of order one
            assert (d_got.evaluate(p) - d_exact.evaluate(p)).max_abs() <= 1e2 * h**2


def test_spatial_numeric_field_joins_a_forward_chart():
    from defectgeo.elasticity import DeformationMap

    body = DeformationMap(("x+0.1*x^3", "y", "z"), kind="forward").inverse_fields()[0]
    numeric = numeric_from(symbolic(0, "x*y+z"))
    total = numeric + body
    for p in random_points(rng, 5):
        want = numeric.evaluate(p).components + body.evaluate(p).components
        assert np.allclose(total.evaluate(p).components, want, rtol=0.0, atol=1e-12)


def test_body_fields_of_two_forward_maps_add():
    from defectgeo.elasticity import DeformationMap

    X = DeformationMap(("x+0.1*x^3", "y", "z"), kind="forward").inverse_fields()[0]
    Y = DeformationMap(("x", "y+0.1*y^3", "z"), kind="forward").inverse_fields()[1]
    total = X + Y
    d = exterior_derivative(total)
    for p in random_points(rng, 5):
        bx, by = X.evaluate(p).components[0], Y.evaluate(p).components[0]
        assert np.isclose(total.evaluate(p).components[0], bx + by, rtol=0.0, atol=1e-12)
        exact = [1.0 / (1.0 + 0.3 * bx**2), 1.0 / (1.0 + 0.3 * by**2), 0.0]
        assert np.max(np.abs(d.evaluate(p).components - exact)) <= 1e-12


def test_forward_map_leaves_are_exact_at_any_depth_and_not_finite_differences():
    from defectgeo.elasticity import DeformationMap

    X = DeformationMap(("x+0.1*x^3", "y", "z"), kind="forward").inverse_fields()[0]
    d4 = exterior_derivative(hodge(exterior_derivative(hodge(exterior_derivative(X)))))
    d4 = exterior_derivative(hodge(d4))  # past the finite-difference depth cap
    assert type(d4) is SymbolicFormField
    assert (d4.fd_step, d4.fd_depth) == (ff.DEFAULT_FD_STEP, 0)
    mixed = exterior_derivative(numeric_from(symbolic(0, "x*y"), fd_step=1e-3) + X)
    assert (mixed.fd_step, mixed.fd_depth) == (1e-3, 1)
    chart_only = numeric_from(symbolic(0, "x")) * 0.0 + X
    assert type(chart_only) is SymbolicFormField
    assert (chart_only.fd_step, chart_only.fd_depth) == (ff.DEFAULT_FD_STEP, 0)


def test_non_finite_value_in_a_later_block_names_its_point():
    xs = np.linspace(0.0, 1.0, 2 * ff.BLOCK + 3)
    ys = xs[::-1]

    def spike(i):
        """A 0-form that is infinite at the grid point i only."""
        return symbolic(0, f"exp(800 - 800*abs(sign(x - {float(xs[i])!r})))")

    second, third = ff.BLOCK + 5, 2 * ff.BLOCK + 1
    for fields in ([spike(second)], [spike(third), spike(second)]):
        with np.errstate(over="ignore"), pytest.raises(EvaluationError) as err:
            ff.evaluate_fields(fields, xs, ys, 0.0)
        # the fault of the earliest block is reported, whatever the order of the fields
        assert err.value.point == (xs[second], ys[second], 0.0, 0.0)
        assert str(err.value).startswith("non-finite field value inf at (")
