"""Exception types shared across the package.

Bad input raises a ValueError subclass, which cli.main turns into one
error line. Each message states the values it is about; pe-check prints
PEVerificationFailed.eigenvalues, and run_experiment reads the scalars
and bits of SimulationDiverged into the row of a diverged cell.
"""


class RankDeficientError(ValueError):
    """Data matrix fails the full-column-rank requirement (or is too
    ill-conditioned to solve reliably); the message states sigma_m."""


class DisconnectedGraphError(ValueError):
    """Graph is disconnected, or its lambda_2 is at numerical zero."""


class PEVerificationFailed(ValueError):
    """A compression schedule is not persistently exciting over the
    requested window; the message states the worst start, and the
    exception carries that start's gram eigenvalues."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
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
