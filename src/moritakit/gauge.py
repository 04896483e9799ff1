"""Gauge transformations of sampled bivector fields by closed 2-forms.

Fields are antisymmetric d x d matrices sampled on a regular grid.  A
field is held as its d(d-1)/2 entries above the diagonal per point, in
``np.triu_indices(d, 1)`` order, which is what the binary field format
stores; an entry below the diagonal is the negated one above, and the
full matrices are built only where a kernel needs them.  The transform
is pointwise: pi -> pi (1 + B pi)^{-1}, defined wherever det(1 + B pi)
stays above ``eps_sing``, which must be finite and >= 0.

For d <= 3, 1 + B pi is (1 - s) I plus a term of rank at most one that
pi kills, with s = sum_{i<j} B_ij pi_ij, and pi is zero or has exactly
two nonzero singular values, both |w|, with w the upper entries of pi.
So the kernels use

    det(1 + B pi) = (1 - s)^2,   pi (1 + B pi)^{-1} = pi / (1 - s),
    rank pi = 2 [|w| > EPS_RANK]

and make no LAPACK call.  For d >= 4 no such closed form exists: they
call LAPACK's det, inv and SVD at every point.

Residuals for the Jacobi identity and for closedness differentiate the
upper entries with order-2 central differences in the interior and
order-2 one-sided differences on the boundary, so both decay like h^2 on
sampled analytic fields.

Every kernel walks the grid in slabs of whole rows of the first axis and
evaluates the same numpy expression at each point as over the whole
grid, so its results do not depend on the slab size, bit for bit.  Its
working memory is a few slabs on top of the fields it reads, and for
``apply_gauge`` the result; no kernel builds the full matrices
``values``.  A partial along the first axis reads the slab plus one row
on each side, widened to the 3 rows that the order-2 one-sided stencil
needs, so it equals ``np.gradient`` over the whole grid.  Whole-grid
results are running reductions over the slabs: the first minimum of the
determinant, and maxima that, like ``np.max``, turn NaN once a NaN is met.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import GridMismatch, GridTooSmall, SingularEndomorphism

EPS_SING = 1e-10
EPS_RANK = 1e-8
# Points per slab: the kernels take about this many points, and at least
# one row of the first axis, at a time.  A 64^3 grid is 16 slabs of 4 rows,
# 128 KiB per scalar array; from 128^3 on a slab is one row.  Slabs 4 times
# larger left the 64^3 gauge benchmark no faster and raised its peak RSS
# from 70.5 to 82.6 MB.
_SLAB = 1 << 14


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


def _slabs(grid: GridSpec) -> list[slice]:
    """Row ranges of the first grid axis, in order, of about ``_SLAB`` points."""
    rows = max(1, _SLAB // int(np.prod(grid.shape[1:])))
    return [slice(lo, min(lo + rows, grid.shape[0]))
            for lo in range(0, grid.shape[0], rows)]


def _matrices(upper: np.ndarray, d: int) -> np.ndarray:
    """The d x d antisymmetric matrices of a block of upper entries."""
    iu, ju = np.triu_indices(d, 1)
    values = np.zeros((*upper.shape[:-1], d, d))
    values[..., iu, ju] = upper
    values[..., ju, iu] = -upper
    return values


def _slot(d: int, i: int, j: int) -> int:
    """Position of entry (i, j) among the upper entries; needs 0 <= i < j < d."""
    if not 0 <= i < j < d:
        raise ValueError("entry indices must satisfy 0 <= i < j < d")
    return i * (2 * d - i - 1) // 2 + j - i - 1


class _SampledField:
    """Grid plus the upper entries of one antisymmetric matrix per point.

    ``upper`` has shape (*grid.shape, d(d-1)/2), its last axis in
    ``np.triu_indices(d, 1)`` order.
    """

    def __init__(self, grid: GridSpec, upper: np.ndarray):
        upper = np.asarray(upper, dtype=float)
        d = grid.dimension
        shape = (*grid.shape, d * (d - 1) // 2)
        if upper.shape != shape:
            raise ValueError(f"upper entries must have shape {shape}")
        self.grid = grid
        self.upper = upper
        self.asymmetry_report: float | None = None
        self.invertibility_report: InvertibilityReport | None = None

    @cached_property
    def values(self) -> np.ndarray:
        """The matrices (*grid.shape, d, d), read-only and built on first use;
        a later write to ``upper`` does not reach them."""
        values = _matrices(self.upper, self.grid.dimension)
        values.flags.writeable = False
        return values

    def nonfinite_point(self) -> tuple[int, ...] | None:
        """Grid index of the first point with a NaN or infinite entry, or None."""
        for rows in _slabs(self.grid):
            bad = np.argwhere(~np.isfinite(self.upper[rows]).all(axis=-1))
            if len(bad):
                first = bad[0].tolist()
                return (rows.start + first[0], *first[1:])
        return None

    @classmethod
    def constant(cls, grid: GridSpec, matrix):
        """The same matrix at every point; it must be d x d and antisymmetric."""
        matrix = np.asarray(matrix, dtype=float)
        d = grid.dimension
        if matrix.shape != (d, d) or not np.array_equal(matrix, -matrix.T):
            raise ValueError(f"matrix must be an antisymmetric {d} x {d} matrix")
        upper = matrix[np.triu_indices(d, 1)]
        return cls(grid, np.broadcast_to(upper, (*grid.shape, len(upper))).copy())

    @classmethod
    def from_entry_functions(cls, grid: GridSpec, entries):
        """Build from callables per upper-triangular entry.

        ``entries[(i, j)]`` (0 <= i < j < d) maps coordinate arrays to the
        (i, j) component; entries not given are zero.
        """
        d = grid.dimension
        mesh = grid.meshgrid()
        upper = np.zeros((*grid.shape, d * (d - 1) // 2))
        for (i, j), fn in entries.items():
            upper[..., _slot(d, i, j)] = fn(*mesh)
        return cls(grid, upper)

    @classmethod
    def from_polynomials(cls, grid: GridSpec, entries):
        """Build from constant/linear/quadratic coefficient tables.

        Every entry is ``{"i", "j", "const", "linear", "quadratic"}`` with
        value c + sum_k l[k] x_k + sum_{kl} q[k][l] x_k x_l.
        """
        d = grid.dimension
        mesh = grid.meshgrid()
        upper = np.zeros((*grid.shape, d * (d - 1) // 2))
        for spec in entries:
            slot = _slot(d, int(spec["i"]), int(spec["j"]))
            out = np.full(grid.shape, float(spec.get("const", 0.0)))
            for k, c in enumerate(float(v) for v in spec.get("linear", ())):
                if c:
                    out = out + c * mesh[k]
            for k, row in enumerate(spec.get("quadratic") or ()):
                for l, c in enumerate(row):
                    if c:
                        out = out + float(c) * mesh[k] * mesh[l]
            upper[..., slot] = out
        return cls(grid, upper)


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


def _pairing(pi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """s = sum_{i<j} B_ij pi_ij at every point of a block of upper entries."""
    return np.einsum("...k,...k->...", b, pi)


def _endomorphism(pi: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    return np.eye(d) + np.matmul(_matrices(b, d), _matrices(pi, d))


def _dets(pi: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """|det(1 + B pi)| at every point of a block of upper entries."""
    if d <= 3:
        return (1.0 - _pairing(pi, b)) ** 2
    return np.abs(np.linalg.det(_endomorphism(pi, b, d)))


def invertibility_check(pi: SampledBivectorField, b: SampledTwoFormField,
                        eps_sing: float = EPS_SING) -> InvertibilityReport:
    """Pointwise determinant of 1 + B pi against the singularity threshold.

    The worst point is the first in row-major order where the determinant
    is smallest (or NaN), as ``np.argmin`` over the whole grid finds it.
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
    grid, d = pi.grid, pi.grid.dimension
    row = int(np.prod(grid.shape[1:]))
    min_det, worst = None, 0
    for rows in _slabs(grid):
        dets = _dets(pi.upper[rows], b.upper[rows], d)
        at = int(np.argmin(dets))
        value = float(dets.flat[at])
        # strict <, so the first minimum is kept; a NaN wins, as in argmin
        if min_det is None or value < min_det or (value != value and min_det == min_det):
            min_det, worst = value, rows.start * row + at
    worst = tuple(int(i) for i in np.unravel_index(worst, grid.shape))
    return InvertibilityReport(min_det > eps_sing, min_det, worst,
                               grid.point(worst), eps_sing)


def apply_gauge(pi: SampledBivectorField, b: SampledTwoFormField,
                eps_sing: float = EPS_SING) -> SampledBivectorField:
    """Gauge transform pi (1 + B pi)^{-1}, kept by its upper entries.

    The result's ``asymmetry_report`` is max |tau + tau^T| of the d >= 4
    LAPACK product before it is antisymmetrized, and 0.0 for d <= 3, where
    the closed form is antisymmetric; ``invertibility_report`` is the check.
    """
    report = invertibility_check(pi, b, eps_sing)
    if not report.ok:
        raise SingularEndomorphism(report.worst_point, report.min_abs_det)
    d = pi.grid.dimension
    iu, ju = np.triu_indices(d, 1)
    upper, defects = np.empty(pi.upper.shape), []
    for rows in _slabs(pi.grid):
        p, q = pi.upper[rows], b.upper[rows]
        if d <= 3:
            np.divide(p, (1.0 - _pairing(p, q))[..., None], out=upper[rows])
        else:
            out = np.matmul(_matrices(p, d), np.linalg.inv(_endomorphism(p, q, d)))
            defects.append(np.max(np.abs(out + np.swapaxes(out, -1, -2))))
            upper[rows] = 0.5 * (out[..., iu, ju] - out[..., ju, iu])
    result = SampledBivectorField(pi.grid, upper)
    result.asymmetry_report = float(np.max(defects)) if defects else 0.0
    result.invertibility_report = report
    return result


def _partials(field: _SampledField, rows: slice):
    """Spatial partials on a slab: ``partial(l, i, j)`` is d/dx_l of entry
    (i, j), i != j, at the rows ``rows`` of the first axis.

    Each upper entry is differentiated on its own; a lower entry's partial
    is the negated upper one, which is exact in floating point.  Along the
    first axis the window is the slab plus one row each side, at least 3
    rows, so the stencils at the slab's rows are the whole grid's.
    """
    grid, upper = field.grid, field.upper
    d, n = grid.dimension, grid.shape[0]
    lo = max(0, min(rows.start - 1, n - 3))
    hi = min(n, max(rows.stop + 1, 3))
    inside = slice(rows.start - lo, rows.stop - lo)

    def partial(l, i, j):
        if i > j:
            return -partial(l, j, i)
        entry = upper[..., _slot(d, i, j)]
        if l:
            return np.gradient(entry[rows], grid.spacing, axis=l, edge_order=2)
        return np.gradient(entry[lo:hi], grid.spacing, axis=0, edge_order=2)[inside]
    return partial


def _max_over_triples(field: _SampledField, cyclic_sum) -> float:
    """Max |cyclic_sum(partial, rows, i, j, k)| over points and triples i < j < k.

    The maxima per slab and triple reduce with ``np.max``, as over the
    whole grid, so a NaN anywhere makes the result NaN.
    """
    if any(n < 3 for n in field.grid.shape):
        raise GridTooSmall("need at least 3 points per axis for order-2 stencils")
    triples = list(combinations(range(field.grid.dimension), 3))
    maxima = []
    for rows in _slabs(field.grid):
        partial = _partials(field, rows)
        maxima += [np.max(np.abs(cyclic_sum(partial, rows, i, j, k))) for i, j, k in triples]
    return float(np.max(maxima))


def closedness_residual(b: SampledTwoFormField) -> float:
    """Max over points and index triples of the cyclic sum d_i B_jk + cycl."""
    if b.grid.dimension < 3:
        return 0.0
    return _max_over_triples(b, lambda partial, rows, i, j, k:
                             partial(i, j, k) + partial(j, k, i) + partial(k, i, j))


def jacobi_residual(pi: SampledBivectorField) -> float:
    """Max cyclic-sum defect pi^{il} d_l pi^{jk} + cycl over points, triples."""
    d = pi.grid.dimension
    if d < 3:
        return 0.0

    def entry(rows, i, l):
        # pi^{il} on the slab, read from the upper entries; the diagonal
        # term stays 0.0 * partial, so a non-finite partial reaches the sum
        if i < l:
            return pi.upper[rows, ..., _slot(d, i, l)]
        return -pi.upper[rows, ..., _slot(d, l, i)] if i > l else 0.0

    def cyclic_sum(partial, rows, i, j, k):
        cyc = np.zeros(pi.upper[rows].shape[:-1])
        for l in range(d):
            cyc = (cyc + entry(rows, i, l) * partial(l, j, k)
                   + entry(rows, j, l) * partial(l, k, i)
                   + entry(rows, k, l) * partial(l, i, j))
        return cyc
    return _max_over_triples(pi, cyclic_sum)


def _ranks(upper: np.ndarray, d: int) -> np.ndarray:
    if d <= 3:
        return 2 * (np.linalg.norm(upper, axis=-1) > EPS_RANK)
    sv = np.linalg.svd(_matrices(upper, d), compute_uv=False)
    return (sv > EPS_RANK).sum(axis=-1)


def _rank_slabs(pi: SampledBivectorField):
    """``(rows, ranks)``: the rank map slab by slab, in row order."""
    for rows in _slabs(pi.grid):
        yield rows, _ranks(pi.upper[rows], pi.grid.dimension)


def rank_map(pi: SampledBivectorField) -> np.ndarray:
    """Pointwise numerical rank: the singular values above ``EPS_RANK``.

    For d <= 3 the nonzero singular values are |w| twice, with w the
    upper entries, so the rank is 2 [|w| > EPS_RANK]; for d >= 4 they
    come from an SVD per point.
    """
    ranks = np.empty(pi.grid.shape, dtype=int)
    for rows, block in _rank_slabs(pi):
        ranks[rows] = block
    return ranks


def verify_composition(pi: SampledBivectorField, b1: SampledTwoFormField,
                       b2: SampledTwoFormField,
                       eps_sing: float = EPS_SING) -> float:
    """Max deviation between transforming by b1 then b2 and by b1 + b2."""
    _require_same_grid(pi, b1)
    _require_same_grid(pi, b2)
    step = apply_gauge(apply_gauge(pi, b1, eps_sing), b2, eps_sing)
    total = apply_gauge(pi, SampledTwoFormField(b1.grid, b1.upper + b2.upper),
                        eps_sing)
    # as over the matrices, whose diagonal is 0 and lower entries the exact
    # negated upper ones; initial=0.0 covers d = 1, which has no entries
    return float(np.max(np.abs(step.upper - total.upper), initial=0.0))
