"""Gauge transformations of sampled bivector fields by closed 2-forms.

Fields are antisymmetric d x d matrices sampled on a regular grid.  A
field is defined by its d(d-1)/2 entries above the diagonal, the ones the
binary field format stores; an entry below the diagonal is the negated
one above.  The transform is pointwise: pi -> pi (1 + B pi)^{-1}, defined
wherever det(1 + B pi) stays above ``eps_sing``, which must be finite and
>= 0.

For d <= 3, 1 + B pi is (1 - s) I plus a term of rank at most one that
pi kills, with s = sum_{i<j} B_ij pi_ij, and pi is zero or has exactly
two nonzero singular values, both |w|, with w the upper entries of pi.
So the kernels use

    det(1 + B pi) = (1 - s)^2,   pi (1 + B pi)^{-1} = pi / (1 - s),
    rank pi = 2 [|w| > eps_rank]

and make no LAPACK call.  For d >= 4 no such closed form exists: they
call LAPACK's det, inv and SVD at every point.

Residuals for the Jacobi identity and for closedness differentiate the
upper entries with order-2 central differences in the interior and
order-2 one-sided differences on the boundary, so both decay like h^2 on
sampled analytic fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import GridMismatch, GridTooSmall, SingularEndomorphism

EPS_SING = 1e-10
EPS_RANK = 1e-8


@dataclass(frozen=True)
class GridSpec:
    dimension: int
    origin: tuple[float, ...]
    spacing: float
    shape: tuple[int, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if len(self.origin) != self.dimension or len(self.shape) != self.dimension:
            raise ValueError("origin/shape length must match dimension")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if any(n < 1 for n in self.shape):
            raise ValueError("shape entries must be positive")

    def axes(self) -> list[np.ndarray]:
        return [self.origin[k] + self.spacing * np.arange(self.shape[k])
                for k in range(self.dimension)]

    def meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")

    def point(self, index) -> tuple[float, ...]:
        return tuple(self.origin[k] + self.spacing * index[k]
                     for k in range(self.dimension))

    def n_points(self) -> int:
        return int(np.prod(self.shape))


class _SampledField:
    """Grid plus one antisymmetric matrix per point (shape *grid.shape, d, d)."""

    def __init__(self, grid: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        d = grid.dimension
        if values.shape != (*grid.shape, d, d):
            raise ValueError(f"values must have shape {(*grid.shape, d, d)}")
        self.grid = grid
        self.values = values
        self.asymmetry_report: float | None = None
        self.invertibility_report: InvertibilityReport | None = None

    def antisymmetry_defect(self) -> float:
        return float(np.max(np.abs(self.values + np.swapaxes(self.values, -1, -2))))

    def nonfinite_point(self) -> tuple[int, ...] | None:
        """Grid index of the first point with a NaN or infinite entry, or None."""
        bad = np.argwhere(~np.isfinite(self.values).all(axis=(-2, -1)))
        return tuple(int(i) for i in bad[0]) if len(bad) else None

    @classmethod
    def constant(cls, grid: GridSpec, matrix):
        matrix = np.asarray(matrix, dtype=float)
        values = np.broadcast_to(matrix, (*grid.shape, *matrix.shape)).copy()
        return cls(grid, values)

    @classmethod
    def from_entry_functions(cls, grid: GridSpec, entries):
        """Build from callables per upper-triangular entry.

        ``entries[(i, j)]`` (i < j) maps coordinate arrays to the (i, j)
        component; the lower triangle is filled by antisymmetry.
        """
        d = grid.dimension
        mesh = grid.meshgrid()
        values = np.zeros((*grid.shape, d, d))
        for (i, j), fn in entries.items():
            comp = np.asarray(fn(*mesh), dtype=float)
            comp = np.broadcast_to(comp, grid.shape)
            values[..., i, j] = comp
            values[..., j, i] = -comp
        return cls(grid, values)

    @classmethod
    def from_polynomials(cls, grid: GridSpec, entries):
        """Build from constant/linear/quadratic coefficient tables.

        Every entry is ``{"i", "j", "const", "linear", "quadratic"}`` with
        value c + sum_k l[k] x_k + sum_{kl} q[k][l] x_k x_l.
        """
        d = grid.dimension
        mesh = grid.meshgrid()
        fns = {}
        for spec in entries:
            i, j = int(spec["i"]), int(spec["j"])
            if not 0 <= i < j < d:
                raise ValueError("entry indices must satisfy 0 <= i < j < d")
            const = float(spec.get("const", 0.0))
            linear = [float(v) for v in spec.get("linear", [0.0] * d)]
            quad = spec.get("quadratic")

            def fn(*coords, const=const, linear=linear, quad=quad):
                out = np.full(coords[0].shape, const)
                for k, c in enumerate(linear):
                    if c:
                        out = out + c * coords[k]
                if quad is not None:
                    for k, row in enumerate(quad):
                        for l, c in enumerate(row):
                            if c:
                                out = out + float(c) * coords[k] * coords[l]
                return out

            fns[(i, j)] = fn
        return cls.from_entry_functions(grid, fns)


class SampledBivectorField(_SampledField):
    """The matrices of a bivector, seen as a bundle map from covectors."""


class SampledTwoFormField(_SampledField):
    """The matrices of a 2-form, seen as a bundle map from vectors."""


@dataclass
class InvertibilityReport:
    ok: bool
    min_abs_det: float
    worst_point: tuple[int, ...]
    worst_coords: tuple[float, ...]
    eps_sing: float

    def as_dict(self):
        return {"ok": self.ok, "min_abs_det": self.min_abs_det,
                "worst_point": list(self.worst_point),
                "worst_coords": list(self.worst_coords),
                "eps_sing": self.eps_sing}


def _require_same_grid(a: _SampledField, b: _SampledField):
    if a.grid != b.grid:
        raise GridMismatch("fields live on different grids")


def _upper(field: _SampledField) -> np.ndarray:
    """The entries above the diagonal, shape (*grid.shape, d(d-1)/2)."""
    iu, ju = np.triu_indices(field.grid.dimension, 1)
    return field.values[..., iu, ju]


def _pairing(pi: SampledBivectorField, b: SampledTwoFormField) -> np.ndarray:
    """s = sum_{i<j} B_ij pi_ij at every point."""
    return np.einsum("...k,...k->...", _upper(b), _upper(pi))


def _endomorphism(pi: SampledBivectorField, b: SampledTwoFormField) -> np.ndarray:
    d = pi.grid.dimension
    return np.eye(d) + np.matmul(b.values, pi.values)


def invertibility_check(pi: SampledBivectorField, b: SampledTwoFormField,
                        eps_sing: float = EPS_SING) -> InvertibilityReport:
    """Pointwise determinant of 1 + B pi against the singularity threshold.

    Raises ValueError when ``eps_sing`` is negative, infinite or NaN, and
    when either field is not finite, naming the first such grid point.
    """
    if not (np.isfinite(eps_sing) and eps_sing >= 0):
        raise ValueError(f"eps_sing must be finite and >= 0, got {eps_sing}")
    _require_same_grid(pi, b)
    for name, field in (("bivector", pi), ("two-form", b)):
        point = field.nonfinite_point()
        if point is not None:
            raise ValueError(f"{name} field is not finite at grid point {point}")
    if pi.grid.dimension <= 3:
        dets = (1.0 - _pairing(pi, b)) ** 2
    else:
        dets = np.abs(np.linalg.det(_endomorphism(pi, b)))
    worst = np.unravel_index(np.argmin(dets), pi.grid.shape)
    min_det = float(dets[worst])
    return InvertibilityReport(min_det > eps_sing, min_det, tuple(int(i) for i in worst),
                               pi.grid.point(worst), eps_sing)


def apply_gauge(pi: SampledBivectorField, b: SampledTwoFormField,
                eps_sing: float = EPS_SING) -> SampledBivectorField:
    """Gauge transform pi (1 + B pi)^{-1}, symmetrized defensively.

    The asymmetry accumulated before symmetrization is stored on the
    result as ``asymmetry_report``, the invertibility check as
    ``invertibility_report``.
    """
    report = invertibility_check(pi, b, eps_sing)
    if not report.ok:
        raise SingularEndomorphism(report.worst_point, report.min_abs_det)
    if pi.grid.dimension <= 3:
        out = pi.values / (1.0 - _pairing(pi, b))[..., None, None]
    else:
        out = np.matmul(pi.values, np.linalg.inv(_endomorphism(pi, b)))
    defect = float(np.max(np.abs(out + np.swapaxes(out, -1, -2))))
    out = 0.5 * (out - np.swapaxes(out, -1, -2))
    result = SampledBivectorField(pi.grid, out)
    result.asymmetry_report = defect
    result.invertibility_report = report
    return result


def _partials(field: _SampledField):
    """Spatial partials: ``partial(l, i, j)`` is d/dx_l of entry (i, j), i != j.

    Only the upper entries are differentiated; a lower entry's partial is
    the negated upper one, which is exact in floating point.
    """
    grid = field.grid
    if any(n < 3 for n in grid.shape):
        raise GridTooSmall("need at least 3 points per axis for order-2 stencils")
    iu, ju = np.triu_indices(grid.dimension, 1)
    slot = {(int(i), int(j)): k for k, (i, j) in enumerate(zip(iu, ju))}
    upper = _upper(field)
    grads = [np.gradient(upper, grid.spacing, axis=l, edge_order=2)
             for l in range(grid.dimension)]

    def partial(l, i, j):
        if i < j:
            return grads[l][..., slot[i, j]]
        return -grads[l][..., slot[j, i]]
    return partial


def closedness_residual(b: SampledTwoFormField) -> float:
    """Max over points and index triples of the cyclic sum d_i B_jk + cycl."""
    d = b.grid.dimension
    if d < 3:
        return 0.0
    partial = _partials(b)
    worst = 0.0
    for i, j, k in combinations(range(d), 3):
        cyc = partial(i, j, k) + partial(j, k, i) + partial(k, i, j)
        worst = max(worst, float(np.max(np.abs(cyc))))
    return worst


def jacobi_residual(pi: SampledBivectorField) -> float:
    """Max cyclic-sum defect pi^{il} d_l pi^{jk} + cycl over points, triples."""
    d = pi.grid.dimension
    if d < 3:
        return 0.0
    partial = _partials(pi)
    v = pi.values
    worst = 0.0
    for i, j, k in combinations(range(d), 3):
        cyc = np.zeros(pi.grid.shape)
        for l in range(d):
            cyc = (cyc + v[..., i, l] * partial(l, j, k)
                   + v[..., j, l] * partial(l, k, i)
                   + v[..., k, l] * partial(l, i, j))
        worst = max(worst, float(np.max(np.abs(cyc))))
    return worst


def rank_map(pi: SampledBivectorField, eps_rank: float = EPS_RANK) -> np.ndarray:
    """Pointwise numerical rank: the singular values above ``eps_rank``.

    For d <= 3 the nonzero singular values are |w| twice, with w the
    upper entries, so the rank is 2 [|w| > eps_rank]; for d >= 4 they
    come from an SVD per point.
    """
    if pi.grid.dimension <= 3:
        return 2 * (np.linalg.norm(_upper(pi), axis=-1) > eps_rank)
    sv = np.linalg.svd(pi.values, compute_uv=False)
    return (sv > eps_rank).sum(axis=-1)


def verify_composition(pi: SampledBivectorField, b1: SampledTwoFormField,
                       b2: SampledTwoFormField,
                       eps_sing: float = EPS_SING) -> float:
    """Max deviation between transforming by b1 then b2 and by b1 + b2."""
    _require_same_grid(pi, b1)
    _require_same_grid(pi, b2)
    step = apply_gauge(apply_gauge(pi, b1, eps_sing), b2, eps_sing)
    total = apply_gauge(pi, SampledTwoFormField(b1.grid, b1.values + b2.values),
                        eps_sing)
    return float(np.max(np.abs(step.values - total.values)))
