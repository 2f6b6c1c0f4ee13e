"""Exception types shared across the package."""


class RankDeficientError(ValueError):
    """Data matrix fails the full-column-rank requirement (or is too
    ill-conditioned to solve reliably)."""

    def __init__(self, message, sigma_min=None):
        super().__init__(message)
        self.sigma_min = sigma_min


class DisconnectedGraphError(ValueError):
    """Graph is not connected; carries one connected component."""

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = tuple(component) if component is not None else None


class PEVerificationFailed(ValueError):
    """A compression schedule is not persistently exciting over the
    requested window; carries the worst start and gram eigenvalues."""

    def __init__(self, message, start=None, eigenvalues=None):
        super().__init__(message)
        self.start = start
        self.eigenvalues = None if eigenvalues is None else tuple(eigenvalues)


class SimulationDiverged(RuntimeError):
    """State norm exceeded the divergence guard during a run; carries the
    clock and norm of the first state beyond it, and the scalars and bits
    sent up to that step."""

    def __init__(self, message, clock=None, norm=None, scalars=None, bits=None):
        super().__init__(message)
        self.clock = clock
        self.norm = norm
        self.scalars = scalars
        self.bits = bits
