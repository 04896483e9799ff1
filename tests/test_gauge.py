import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moritakit import gauge
from moritakit.cli import main
from moritakit.errors import GridMismatch, GridTooSmall, SingularEndomorphism
from moritakit.gauge import (GridSpec, SampledBivectorField,
                             SampledTwoFormField, apply_gauge,
                             closedness_residual, invertibility_check,
                             jacobi_residual, rank_map, verify_composition)
from moritakit.io import save_field
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
    values = apply_gauge(pi, b).values
    assert np.array_equal(values, -np.swapaxes(values, -1, -2))


def from_upper(cls, grid, upper):
    """A field from its upper entries, one row per point in row-major order."""
    return cls(grid, upper.reshape(*grid.shape, upper.shape[-1]))


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
    shape = (1,) * d + pi.upper.shape[-1:]
    return (SampledBivectorField(grid, pi.upper[index].reshape(shape)),
            SampledTwoFormField(grid, b.upper[index].reshape(shape)))


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


def test_constructor_checks_the_shape_of_the_upper_entries():
    g = grid3(3)
    SampledBivectorField(g, np.zeros((3, 3, 3, 3)))
    for shape in ((3, 3, 3, 3, 3), (3, 3, 3, 2), (3, 3, 3)):
        with pytest.raises(ValueError, match="upper entries"):
            SampledBivectorField(g, np.zeros(shape))


@pytest.mark.parametrize("matrix", [
    np.array([[0.0, 1.0], [1.0, 0.0]]),     # symmetric
    np.array([[1.0, 1.0], [-1.0, 0.0]]),    # nonzero diagonal
    np.array([[0.0, 1.0], [-1.0 + 1e-15, 0.0]]),
    np.zeros((3, 3)), np.zeros(2), np.zeros((2, 2, 1)),
])
def test_constant_rejects_a_matrix_that_is_not_antisymmetric(matrix):
    # a lower triangle that is not the negated upper one was kept silently:
    # the closed forms ignored it and the d >= 4 path read it
    with pytest.raises(ValueError, match="antisymmetric 2 x 2"):
        SampledTwoFormField.constant(grid2(), matrix)


@pytest.mark.parametrize("key", [(1, 0), (0, 0), (0, 3), (-1, 2)])
def test_entry_constructors_reject_keys_off_the_upper_triangle(key):
    with pytest.raises(ValueError, match="0 <= i < j < d"):
        SampledBivectorField.from_entry_functions(grid3(3), {key: lambda x, y, z: x})
    with pytest.raises(ValueError, match="0 <= i < j < d"):
        SampledBivectorField.from_polynomials(
            grid3(3), [{"i": key[0], "j": key[1], "const": 1.0}])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_values_are_the_read_only_expansion_of_the_upper_entries(d):
    grid = GridSpec(d, (0.0,) * d, 0.5, (3,) * d)
    rng = np.random.default_rng(d)
    field = from_upper(SampledTwoFormField, grid,
                       rng.standard_normal((grid.n_points(), d * (d - 1) // 2)))
    values = field.values
    assert values is field.values     # built once
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[(0,) * d] = 1.0
    expected = np.zeros((*grid.shape, d, d))
    for k, (i, j) in enumerate(zip(*np.triu_indices(d, 1))):
        expected[..., i, j] = field.upper[..., k]
        expected[..., j, i] = -field.upper[..., k]
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_transform_is_the_scaled_upper_entries(d):
    pi, b, s = random_gauge_pair(np.random.default_rng(d), d)
    out = apply_gauge(pi, b, 0.0)
    assert out.asymmetry_report == 0.0
    assert out.upper.tobytes() == (pi.upper / (1.0 - s)[..., None]).tobytes()


# ---------------------------------------------------------------------------
# slabs: every kernel walks rows of the first axis, bit for bit as one slab

SLAB_GRIDS = {2: [(7, 4), (3, 5)], 3: [(7, 3, 4), (3, 4, 3)],
              4: [(5, 3, 3, 3), (3, 3, 3, 4)]}


def slab_case(d, shape, seed=0):
    """Random pi and B on ``shape``, the point of the smallest |det(1 + B pi)|
    copied to the last point, so the first minimum must win across slabs."""
    grid = GridSpec(d, (0.0,) * d, 0.25, shape)
    rng = np.random.default_rng([d, *shape, seed])
    m = d * (d - 1) // 2
    pi = from_upper(SampledBivectorField, grid, rng.standard_normal((grid.n_points(), m)))
    b = from_upper(SampledTwoFormField, grid,
                   0.3 * rng.standard_normal((grid.n_points(), m)))
    worst = invertibility_check(pi, b, 0.0).worst_point
    last = tuple(n - 1 for n in shape)
    pi.upper[last], b.upper[last] = pi.upper[worst], b.upper[worst]
    return pi, b


def kernel_results(pi, b):
    """Every kernel's result, as bytes and reprs so that NaN compares."""
    out = apply_gauge(pi, b, 0.0)
    ranks = rank_map(pi)
    return {"nonfinite": (pi.nonfinite_point(), b.nonfinite_point()),
            "check": repr(invertibility_check(pi, b, 0.0)),
            "apply": (out.upper.tobytes(), repr(out.asymmetry_report)),
            "rank": (ranks.dtype, ranks.tobytes()),
            "jacobi": repr(jacobi_residual(pi)),
            "closedness": repr(closedness_residual(b))}


def with_slab_rows(monkeypatch, grid, rows):
    """Slabs of ``rows`` rows of the first axis; None: one slab."""
    row = int(np.prod(grid.shape[1:]))
    monkeypatch.setattr(gauge, "_SLAB", grid.n_points() if rows is None else rows * row)
    return gauge._slabs(grid)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_kernels_in_slabs_equal_the_whole_grid(monkeypatch, d, rows):
    for shape in SLAB_GRIDS[d]:
        pi, b = slab_case(d, shape)
        grid = pi.grid
        assert len(with_slab_rows(monkeypatch, grid, None)) == 1
        whole = kernel_results(pi, b)
        slabs = with_slab_rows(monkeypatch, grid, rows)
        assert [s.stop - s.start for s in slabs][:-1] == [rows] * (len(slabs) - 1)
        assert kernel_results(pi, b) == whole, shape
        # the first minimum, not the copy at the last point
        assert invertibility_check(pi, b, 0.0).worst_point != grid.shape
        if d == 4:
            # entries of 1e200 from the second row on overflow LAPACK's det
            # to NaN, which np.argmin takes first, at its first occurrence
            scale = np.full((shape[0],) + (1,) * d, 1e200)
            scale[0] = 1.0
            huge = [type(f)(grid, f.upper * scale) for f in (pi, b)]
            with np.errstate(all="ignore"):
                found = repr(invertibility_check(*huge, 0.0))
                with_slab_rows(monkeypatch, grid, None)
                assert found == repr(invertibility_check(*huge, 0.0))
            assert "nan" in found
            with_slab_rows(monkeypatch, grid, rows)
        # non-finite entries: the first bad point, and residuals that read
        # them as the whole grid does
        pi.upper[(shape[0] - 1, 0) + (0,) * (d - 2)] = np.inf
        pi.upper[(shape[0] - 1,) + (0,) * (d - 2) + (1,)] = np.nan
        b.upper[(1,) * d] = np.nan
        with np.errstate(invalid="ignore"):
            found = (pi.nonfinite_point(), b.nonfinite_point(),
                     repr(jacobi_residual(pi)), repr(closedness_residual(b)))
            with_slab_rows(monkeypatch, grid, None)
            assert found == (pi.nonfinite_point(), b.nonfinite_point(),
                             repr(jacobi_residual(pi)), repr(closedness_residual(b)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_kernels_in_one_row_slabs_agree_with_lapack(monkeypatch, d):
    # tests/support.reference_gauge works on the full matrices of the whole
    # grid: LAPACK det, inv and SVD, and differences of all d^2 entries
    pi, b = slab_case(d, SLAB_GRIDS[d][0], seed=1)
    with_slab_rows(monkeypatch, pi.grid, 1)
    ref = reference_gauge(pi, b)
    report = invertibility_check(pi, b, 0.0)
    assert report.worst_point == tuple(
        int(i) for i in np.unravel_index(np.argmin(ref["det"]), pi.grid.shape))
    assert report.min_abs_det == pytest.approx(ref["det"][report.worst_point], rel=1e-9)
    tau = apply_gauge(pi, b, 0.0)
    assert np.allclose(tau.values, ref["tau"], rtol=1e-9, atol=1e-12)
    assert np.array_equal(rank_map(pi), ref["rank"])
    assert jacobi_residual(pi) == ref["jacobi"]
    assert closedness_residual(b) == ref["closedness"]
    if d == 4:  # the LAPACK path is LAPACK's, bit for bit
        assert np.array_equal(tau.values, ref["tau"])
        assert tau.asymmetry_report == ref["asymmetry"]
        assert report.min_abs_det == ref["det"][report.worst_point]


@pytest.mark.parametrize("d, n", [(3, 5), (4, 4)])
def test_residuals_of_a_field_with_one_nan_are_nan(d, n):
    # the NaN partial meets the triples through a 0.0 term or its own; no
    # maximum over slabs or triples may drop it
    grid = GridSpec(d, (0.0,) * d, 0.25, (n,) * d)
    rng = np.random.default_rng(d)
    m = d * (d - 1) // 2
    pi = from_upper(SampledBivectorField, grid, rng.standard_normal((grid.n_points(), m)))
    b = from_upper(SampledTwoFormField, grid, rng.standard_normal((grid.n_points(), m)))
    pi.upper[(1,) * d + (0,)] = np.nan
    b.upper[(1,) * d + (0,)] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(jacobi_residual(pi))
        assert np.isnan(closedness_residual(b))


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_gauge_reports_in_slabs_equal_the_whole_grid(tmp_path, capsys, monkeypatch,
                                                     d, rows):
    pi, b = slab_case(d, SLAB_GRIDS[d][0])
    save_field(pi, tmp_path / "pi.field", "bivector")
    save_field(b, tmp_path / "b.field", "two_form")
    argvs = [["gauge-check", "pi.field", "b.field"],
             ["gauge-apply", "pi.field", "b.field", "--out", "tau.field"]]

    def reports():
        out = []
        for argv in argvs:
            main([str(tmp_path / a) if "." in a else a for a in argv] + ["--quiet"])
            out.append(capsys.readouterr().out)
        return out + [(tmp_path / "tau.field").read_bytes()]
    with_slab_rows(monkeypatch, pi.grid, None)
    whole = reports()
    with_slab_rows(monkeypatch, pi.grid, rows)
    assert reports() == whole
    assert '"rank_histogram"' in whole[0] and '"output_digest"' in whole[1]


def test_gauge_commands_build_no_matrices(tmp_path, capsys, monkeypatch):
    # values stays public API; no gauge command builds it
    pi, b = slab_case(3, (7, 3, 4))
    save_field(pi, tmp_path / "pi.field", "bivector")
    save_field(b, tmp_path / "b.field", "two_form")
    built = []
    values = gauge._SampledField.values.func
    monkeypatch.setattr(gauge._SampledField, "values",
                        property(lambda f: built.append(f) or values(f)))
    for argv in (["gauge-check", "pi.field", "b.field"],
                 ["gauge-apply", "pi.field", "b.field", "--out", "tau.field"],
                 ["validate", "pi.field"]):
        assert main([str(tmp_path / a) if "." in a else a for a in argv] + ["--quiet"]) == 0
    capsys.readouterr()
    assert built == []


def test_gauge_commands_run_in_bounded_memory(tmp_path, capsys):
    # U: the bytes of one field's upper entries.  gauge-check holds the two
    # loaded fields plus slabs, gauge-apply --out the result as well
    grid = grid3(64)
    rng = np.random.default_rng(0)
    upper = rng.standard_normal((*grid.shape, 3))
    save_field(SampledBivectorField(grid, upper), tmp_path / "pi.field", "bivector")
    upper *= 0.01
    save_field(SampledTwoFormField(grid, upper), tmp_path / "b.field", "two_form")
    del upper
    U = grid.n_points() * 3 * 8
    pi, b, tau = (str(tmp_path / name) for name in ("pi.field", "b.field", "tau.field"))
    for argv, bound in ((["gauge-check", pi, b], 2 * U + 16 * 2 ** 20),
                        (["gauge-apply", pi, b, "--out", tau], 3 * U + 16 * 2 ** 20)):
        tracemalloc.start()
        try:
            code = main(argv + ["--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert code == 0, report
        assert peak <= bound, (argv[0], peak / U)
    digest = hashlib.sha256((tmp_path / "tau.field").read_bytes()).hexdigest()
    assert report["result"]["output_digest"] == "sha256:" + digest
