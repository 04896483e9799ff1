import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moritakit.errors import GridMismatch, GridTooSmall, SingularEndomorphism
from moritakit.gauge import (GridSpec, SampledBivectorField,
                             SampledTwoFormField, apply_gauge,
                             closedness_residual, invertibility_check,
                             jacobi_residual, rank_map, verify_composition)
from support import reference_gauge

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def grid2(n=9, h=0.125):
    return GridSpec(2, (0.0, 0.0), h, (n, n))


def grid3(n):
    return GridSpec(3, (0.0, 0.0, 0.0), 1.0 / (n - 1), (n, n, n))


def test_grid_spec_rejects_bad_data():
    with pytest.raises(ValueError):
        GridSpec(2, (0.0,), 0.1, (3, 3))
    with pytest.raises(ValueError):
        GridSpec(2, (0.0, 0.0), -1.0, (3, 3))


def test_invertibility_examples():
    g = grid2()
    pi = SampledBivectorField.constant(g, J2)
    assert invertibility_check(pi, SampledTwoFormField.constant(g, 0 * J2)).ok
    # B = J makes 1 + B pi = 0
    rep = invertibility_check(pi, SampledTwoFormField.constant(g, J2))
    assert not rep.ok and rep.min_abs_det == 0.0
    rep = invertibility_check(pi, SampledTwoFormField.constant(g, 0.5 * J2))
    assert rep.ok
    assert rep.min_abs_det == pytest.approx(0.25)


def test_grid_mismatch_raises():
    pi = SampledBivectorField.constant(grid2(9), J2)
    b = SampledTwoFormField.constant(grid2(7), J2)
    with pytest.raises(GridMismatch):
        invertibility_check(pi, b)


def test_apply_gauge_zero_form_is_identity():
    g = grid2(33, 1 / 32)
    pi = SampledBivectorField.from_entry_functions(
        g, {(0, 1): lambda x, y: 1.0 + x * y})
    out = apply_gauge(pi, SampledTwoFormField.constant(g, np.zeros((2, 2))))
    assert np.array_equal(out.values, pi.values)
    assert out.asymmetry_report == 0.0


def test_apply_gauge_halving_example():
    g = grid2()
    pi = SampledBivectorField.constant(g, J2)
    out = apply_gauge(pi, SampledTwoFormField.constant(g, 0.5 * J2))
    assert np.allclose(out.values, 2.0 * J2)


def test_apply_gauge_raises_on_singular_point():
    g = grid2(5, 0.25)
    # B pi = -x at these matrices, so 1 + B pi vanishes where x = 1
    pi = SampledBivectorField.from_entry_functions(g, {(0, 1): lambda x, y: x})
    b = SampledTwoFormField.constant(g, J2)
    with pytest.raises(SingularEndomorphism) as err:
        apply_gauge(pi, b)
    assert err.value.point == (4, 0)


def test_symplectic_inverse_law():
    g = grid2(17, 1 / 16)
    pi = SampledBivectorField.from_entry_functions(
        g, {(0, 1): lambda x, y: 1.0 + 0.5 * np.sin(x + y)})
    b = SampledTwoFormField.from_entry_functions(
        g, {(0, 1): lambda x, y: 0.25 * np.cos(x - y)})
    out = apply_gauge(pi, b)
    lhs = np.linalg.inv(out.values)
    rhs = np.linalg.inv(pi.values) + b.values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_composition_law_and_inverse_recovery():
    g = grid2()
    pi = SampledBivectorField.constant(g, J2)
    b = SampledTwoFormField.constant(g, 0.3 * J2)
    back = SampledTwoFormField.constant(g, -0.3 * J2)
    assert verify_composition(pi, b, back) <= 1e-12
    recovered = apply_gauge(apply_gauge(pi, b), back)
    assert np.max(np.abs(recovered.values - pi.values)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_composition_law_random_d4(seed):
    rng = np.random.default_rng(seed)
    g = GridSpec(4, (0.0,) * 4, 0.5, (3, 3, 3, 3))
    def random_form(scale):
        m = scale * rng.standard_normal((4, 4))
        return 0.5 * (m - m.T)
    pi = SampledBivectorField.constant(g, random_form(1.0))
    b1 = SampledTwoFormField.constant(g, random_form(0.2))
    b2 = SampledTwoFormField.constant(g, random_form(0.2))
    if not invertibility_check(pi, SampledTwoFormField.constant(
            g, b1.values[(0,) * 4] + b2.values[(0,) * 4])).ok:
        return
    try:
        assert verify_composition(pi, b1, b2) <= 1e-10
    except SingularEndomorphism:
        pass


def test_rank_map_examples():
    g = grid2(5, 0.25)
    sym = SampledBivectorField.constant(g, J2)
    assert np.all(rank_map(sym) == 2)
    zero = SampledBivectorField.constant(g, np.zeros((2, 2)))
    assert np.all(rank_map(zero) == 0)
    vanishing = SampledBivectorField.from_entry_functions(
        g, {(0, 1): lambda x, y: x - 0.5})
    ranks = rank_map(vanishing)
    assert np.all(ranks[2, :] == 0)       # the zero curve x = 0.5
    assert np.all(ranks[[0, 1, 3, 4], :] == 2)


def test_rank_preserved_under_gauge():
    g = grid2(9)
    pi = SampledBivectorField.from_entry_functions(
        g, {(0, 1): lambda x, y: x - 0.5})
    b = SampledTwoFormField.from_entry_functions(
        g, {(0, 1): lambda x, y: 0.25 + 0.1 * x})
    rep = invertibility_check(pi, b)
    assert rep.ok
    out = apply_gauge(pi, b)
    dets = np.abs(np.linalg.det(np.eye(2) + b.values @ pi.values))
    margin = dets > 1e-6
    assert np.array_equal(rank_map(out)[margin], rank_map(pi)[margin])


def test_closedness_residual_examples():
    g = grid3(5)
    const = SampledTwoFormField.constant(g, np.array([[0, 1, 0],
                                                      [-1, 0, 2],
                                                      [0, -2, 0.0]]))
    assert closedness_residual(const) <= 1e-13
    linear = SampledTwoFormField.from_entry_functions(
        g, {(0, 1): lambda x, y, z: z})
    assert closedness_residual(linear) == pytest.approx(1.0, abs=1e-10)
    # an exact form sampled: residual at truncation level only
    exact = SampledTwoFormField.from_entry_functions(g, {
        (0, 1): lambda x, y, z: 2 * np.cos(2 * x) * np.sin(z),
        (1, 2): lambda x, y, z: -np.sin(2 * x) * np.cos(z)})
    assert closedness_residual(exact) < 0.3


def test_closedness_trivial_in_low_dimension():
    b = SampledTwoFormField.constant(grid2(), J2)
    assert closedness_residual(b) == 0.0


def test_residuals_need_three_points_per_axis():
    g = GridSpec(3, (0.0, 0.0, 0.0), 0.5, (2, 3, 3))
    b = SampledTwoFormField.constant(g, np.zeros((3, 3)))
    with pytest.raises(GridTooSmall):
        closedness_residual(b)


def test_jacobi_residual_examples():
    g = grid3(5)
    const = SampledBivectorField.constant(g, np.array([[0, 1, 2],
                                                       [-1, 0, 3],
                                                       [-2, -3, 0.0]]))
    assert jacobi_residual(const) <= 1e-13
    # rotational structure: linear entries, cyclic sum vanishes identically
    so3 = SampledBivectorField.from_entry_functions(g, {
        (0, 1): lambda x, y, z: z,
        (1, 2): lambda x, y, z: x,
        (0, 2): lambda x, y, z: -y})
    assert jacobi_residual(so3) <= 1e-12
    # single-block quadratic structure
    block = SampledBivectorField.from_entry_functions(
        g, {(0, 1): lambda x, y, z: x * y})
    assert jacobi_residual(block) <= 1e-12
    # a non-integrable bivector has an order-one residual
    bad = SampledBivectorField.from_entry_functions(g, {
        (0, 1): lambda x, y, z: z,
        (1, 2): lambda x, y, z: y,
        (0, 2): lambda x, y, z: x})
    assert jacobi_residual(bad) > 0.5


def _casimir_field(n, partials):
    g = grid3(n)
    return SampledBivectorField.from_entry_functions(g, {
        (0, 1): lambda x, y, z: partials[2](x, y, z),
        (1, 2): lambda x, y, z: partials[0](x, y, z),
        (0, 2): lambda x, y, z: -partials[1](x, y, z)})


def test_gauge_preserves_jacobi_residual_scale():
    # the transform of a sampled Poisson structure by a sampled closed
    # form stays Poisson at truncation level: its residual decays like h^2
    residuals = {}
    for n in (9, 17):
        pi = _casimir_field(n, [
            lambda x, y, z: np.exp(x) * np.cos(y) + z ** 3,
            lambda x, y, z: -np.exp(x) * np.sin(y),
            lambda x, y, z: 3 * x * z * z])
        b = SampledTwoFormField.from_entry_functions(pi.grid, {
            (0, 1): lambda x, y, z: 0.02 * x,
            (1, 2): lambda x, y, z: 0.02 * z})
        assert invertibility_check(pi, b).min_abs_det > 0.5
        residuals[n] = jacobi_residual(apply_gauge(pi, b))
    assert 3.5 <= residuals[9] / residuals[17] <= 4.5


def test_convergence_rates_prototype():
    # a light version of the acceptance criterion, one family per residual
    def fam(n):
        g = grid3(n)
        return SampledTwoFormField.from_entry_functions(g, {
            (0, 2): lambda x, y, z: 3 * np.cos(3 * x) * np.sin(2 * y),
            (1, 2): lambda x, y, z: 2 * np.sin(3 * x) * np.cos(2 * y)})
    ratio = closedness_residual(fam(9)) / closedness_residual(fam(17))
    assert 3.5 <= ratio <= 4.5
    pi9 = _casimir_field(9, [
        lambda x, y, z: 4 * x ** 3 * y + z ** 4,
        lambda x, y, z: x ** 4 + 4 * y ** 3 * z,
        lambda x, y, z: y ** 4 + 4 * z ** 3 * x])
    pi17 = _casimir_field(17, [
        lambda x, y, z: 4 * x ** 3 * y + z ** 4,
        lambda x, y, z: x ** 4 + 4 * y ** 3 * z,
        lambda x, y, z: y ** 4 + 4 * z ** 3 * x])
    ratio = jacobi_residual(pi9) / jacobi_residual(pi17)
    assert 3.5 <= ratio <= 4.5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_antisymmetry_preserved(seed):
    rng = np.random.default_rng(seed)
    g = grid2(5, 0.25)
    m = rng.standard_normal((2, 2))
    pi = SampledBivectorField.constant(g, 0.5 * (m - m.T))
    b = SampledTwoFormField.constant(g, 0.1 * J2)
    if not invertibility_check(pi, b).ok:
        return
    out = apply_gauge(pi, b)
    assert out.antisymmetry_defect() <= 1e-12


def from_upper(cls, grid, upper):
    """A field from its upper entries, one row per point in row-major order."""
    d = grid.dimension
    iu, ju = np.triu_indices(d, 1)
    upper = upper.reshape(*grid.shape, len(iu))
    values = np.zeros((*grid.shape, d, d))
    values[..., iu, ju] = upper
    values[..., ju, iu] = -upper
    return cls(grid, values)


def random_gauge_pair(rng, d, n=5):
    """Random pi and B on an n^d grid, with exact-zero and 1e-12-scaled
    points of pi and points where 1 - s = 1 - <B, pi> is pushed down to 1e-6.

    B is moved along pi to set s there, so |B| |pi| stays of order one:
    LAPACK's relative error grows like |B|^2 |pi|^2 / |1 - s|, and it is
    the oracle.  Returns the fields and s per point.
    """
    grid = GridSpec(d, (0.0,) * d, 0.25, (n,) * d)
    m = d * (d - 1) // 2
    pi = rng.standard_normal((grid.n_points(), m))
    b = 0.5 * rng.standard_normal((grid.n_points(), m))
    points = rng.permutation(grid.n_points())
    pi[points[:3]] = 0.0
    pi[points[3:6]] *= 1e-12
    if m:
        gaps = (1e-6, -1e-6, 1e-5, -1e-4, 1e-3, -1e-3, 1e-2)
        for p, gap in zip(points[6:], gaps):
            b[p] += (1.0 - gap - b[p] @ pi[p]) / (pi[p] @ pi[p]) * pi[p]
    s = np.einsum("pk,pk->p", b, pi).reshape(grid.shape)
    return (from_upper(SampledBivectorField, grid, pi),
            from_upper(SampledTwoFormField, grid, b), s)


def point_fields(pi, b, index):
    """The two fields at one grid point, on a one-point grid."""
    d = pi.grid.dimension
    grid = GridSpec(d, (0.0,) * d, 1.0, (1,) * d)
    shape = (1,) * d + (d, d)
    return (SampledBivectorField(grid, pi.values[index].reshape(shape)),
            SampledTwoFormField(grid, b.values[index].reshape(shape)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_forms_match_lapack(d, seed):
    rng = np.random.default_rng(1000 * d + seed)
    pi, b, s = random_gauge_pair(rng, d)
    ref = reference_gauge(pi, b)
    far = np.abs(1.0 - s) >= 1e-3
    for index in map(tuple, np.argwhere(far)):
        det = invertibility_check(*point_fields(pi, b, index), 0.0).min_abs_det
        assert abs(det - ref["det"][index]) <= 1e-12 * ref["det"][index]
    tau = apply_gauge(pi, b, 0.0).values
    gap = np.max(np.abs(tau - ref["tau"]), axis=(-2, -1))
    size = np.max(np.abs(ref["tau"]), axis=(-2, -1))
    assert np.all(gap[far] <= 1e-12 * size[far])
    assert np.array_equal(rank_map(pi), ref["rank"])
    assert jacobi_residual(pi) == ref["jacobi"]
    assert closedness_residual(b) == ref["closedness"]


@pytest.mark.parametrize("seed", range(3))
def test_d4_results_are_lapack_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(4, (0.0,) * 4, 0.5, (3, 3, 3, 4))
    pi = from_upper(SampledBivectorField, grid,
                    rng.standard_normal((grid.n_points(), 6)))
    b = from_upper(SampledTwoFormField, grid,
                   0.1 * rng.standard_normal((grid.n_points(), 6)))
    ref = reference_gauge(pi, b)
    report = invertibility_check(pi, b)
    worst = np.unravel_index(np.argmin(ref["det"]), grid.shape)
    assert report.min_abs_det == ref["det"][worst]
    assert report.worst_point == tuple(int(i) for i in worst)
    out = apply_gauge(pi, b)
    assert np.array_equal(out.values, ref["tau"])
    assert out.asymmetry_report == ref["asymmetry"]
    assert np.array_equal(rank_map(pi), ref["rank"])
    assert jacobi_residual(pi) == ref["jacobi"]
    assert closedness_residual(b) == ref["closedness"]
