"""Exception types shared across the toolkit."""


class MoritaKitError(Exception):
    """Base class for all toolkit errors."""


class InvalidAction(MoritaKitError):
    """A purported group action violates the action axioms."""


class NotPrincipal(MoritaKitError):
    """Principal-bundle data fails freeness or fibre transitivity."""


class NotFunctor(MoritaKitError):
    """A purported groupoid homomorphism is not a functor."""


class MiddleMismatch(MoritaKitError):
    """Tensor product requested over two different middle groupoids."""


class NotLeftPrincipal(MoritaKitError):
    """Tensor factors must be left principal."""


class InvalidBibundle(MoritaKitError):
    """A tensor factor fails ``validate_bibundle``.

    Carries the factor's validation report and its position, 0 or 1.
    """

    def __init__(self, report, factor: int):
        self.report = report
        self.factor = factor
        super().__init__(f"tensor factor {factor} is not a valid bibundle "
                         f"({len(report.violations)} violation(s))")


class MissingVolume(MoritaKitError):
    """Poisson isomorphism test needs the volume invariant on both graphs."""


class InconsistentTopology(MoritaKitError):
    """Labeled graph does not encode a closed oriented surface."""


class GridMismatch(MoritaKitError):
    """Two sampled fields live on different grids."""


class GridTooSmall(MoritaKitError):
    """Finite differencing needs at least three points per axis."""


class SingularEndomorphism(MoritaKitError):
    """The gauge endomorphism is numerically singular somewhere.

    Carries the offending grid index and the determinant value there.
    """

    def __init__(self, point, det):
        self.point = tuple(int(i) for i in point)
        self.det = float(det)
        super().__init__(f"singular endomorphism at grid point {self.point} (det={self.det:.3e})")
