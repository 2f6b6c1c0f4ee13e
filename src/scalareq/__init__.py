"""Distributed solving of network linear equations H v = b with
scalarized communication compression.

Each node holds one row of the stacked system and transmits a single
scalar per exchange under a persistently exciting compression schedule;
the package simulates the continuous and discrete solvers, verifies the
excitation assumptions, evaluates every closed-form rate constant, and
reproduces the communication-burden comparisons against baseline
compressors.
"""

from .compression import (CompressionSchedule, Compressor, PEWitness,
                          compress_topk, compress_unbiased, compress_uniform,
                          eval_ct, eval_dt, make_schedule, pe_gram_ct,
                          pe_gram_dt, scalarize, unfold, verify_pe_ct,
                          verify_pe_dt)
from .dynamics import (RunConfig, Trace, Trajectory, consensus_rhs, integrate,
                       run_simulation, solver_ct_rhs, solver_dt_step)
from .errors import (DisconnectedGraphError, PEVerificationFailed,
                     RankDeficientError, SimulationDiverged)
from .graph import (LaplacianSpectrum, WeightedGraph, build_graph,
                    disagreement_basis, laplacian_spectrum)
from .harness import (ExperimentSpec, ProblemInstance, ResultRow, account,
                      fit_rate, gen_instance, load_instance, parse_config,
                      parse_results, parse_trace, run_experiment,
                      save_instance, serialize)
from .linalg import (RankVerdict, SpectralConstants, least_squares,
                     rank_check, spectral_constants, sym_eig)
from .theory import (RateConstants, consensus_rate, dt_stepsize_and_rate,
                     lemma1_constants, lyapunov_v1, observability_gram,
                     solver_ct_rate)

__version__ = "0.1.0"
