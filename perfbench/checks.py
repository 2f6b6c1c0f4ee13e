"""Output checks behind fail_frac.

Every check compares the program's output with a reference this file
computes on its own (numpy's eigvalsh, closed-form cycle spectra,
Gauss-Legendre quadrature, the communication convention restated here)
or with an invariant the paper states. None compares with numbers
recorded from a particular commit, so changes that move hit clocks or
witnesses on purpose keep passing.

Each check returns a list of problems; an empty list passes.
"""

import csv
import math
import re

import numpy as np

UNIFORM_FLOOR = 1e-3
SPECTRUM_TOL = 1e-9
# slack for a certificate against the benchmark's own eigvalsh minimum:
# both sides are eigenvalues of the same matrix up to rounding
CERT_RTOL = 1e-9
CERT_ATOL = 1e-12


def message_cost(label, m):
    """(scalars, bits) of one directed message, per the README convention."""
    match = re.fullmatch(r"(\w+)(?:\((\w)=(\d+)\))?", label)
    if match is None:
        raise ValueError(f"unknown compressor label {label!r}")
    kind, param = match.group(1), match.group(3)
    if kind == "scalarized":
        return 1, 64
    if kind in ("none", "uniform"):
        return m, 64 * m
    if kind == "topk":
        k = int(param)
        return 2 * k, 64 * k + k * (math.ceil(math.log2(m)) if m > 1 else 0)
    if kind == "unbiased":
        return m + 1, m * int(param) + 64
    raise ValueError(f"unknown compressor kind {kind!r}")


def cycle_links(n):
    """Directed links of an n-node cycle: two per undirected edge."""
    return 2 * (n if n >= 3 else n - 1)


def ledger(rounds, scalars, bits, label, m, links):
    """scalars = rounds * 2|E| * per-message scalars, and the same for bits."""
    msg_scalars, msg_bits = message_cost(label, m)
    problems = []
    if scalars != rounds * links * msg_scalars:
        problems.append(f"scalars {scalars} != {rounds} rounds * {links} links * {msg_scalars}")
    if bits != rounds * links * msg_bits:
        problems.append(f"bits {bits} != {rounds} rounds * {links} links * {msg_bits}")
    return problems


def read_results(path):
    """Rows of a results CSV as dicts of strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_trace(path):
    """(meta, rows) of a trace CSV; rows hold (clock, err, scalars, bits)."""
    meta, rows = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif line and not line.startswith("clock"):
                clock, err, _, scalars, bits = line.split(",")
                rows.append((float(clock), float(err), int(scalars), int(bits)))
    return meta, rows


def rounds_of(clock, mode, dt_int):
    """Exchange rounds at a clock: steps (dt) or integrator steps (ct)."""
    return int(clock) if mode == "dt" else int(round(clock / dt_int))


def result_row(row, m, links, horizon, dt_int):
    """Ledger and outcome consistency of one results-CSV cell."""
    hit = float(row["hit_clock"])
    converged = row["converged"] == "true"
    problems = ledger(rounds_of(hit, row["mode"], dt_int), int(row["scalars_at_hit"]),
                      int(row["bits_at_hit"]), row["compressor"], m, links)
    if converged and not hit <= horizon:
        problems.append(f"converged at {hit} beyond horizon {horizon}")
    if not converged and hit != horizon:
        problems.append(f"not converged but hit_clock {hit} != horizon {horizon}")
    return problems


def pair_problems(rows):
    """In every (mode, s, seed) pair scalarized sends fewer scalars than none.

    Returns the problems of each failing pair, keyed by (mode, s, seed).
    """
    by_key = {}
    for row in rows:
        by_key.setdefault((row["mode"], row["s"], row["seed"]), {})[row["compressor"]] = row
    problems = {}
    for key, pair in by_key.items():
        if set(pair) != {"scalarized", "none"}:
            problems[key] = [f"cell pair {key} incomplete: {sorted(pair)}"]
        elif int(pair["scalarized"]["scalars_at_hit"]) >= int(pair["none"]["scalars_at_hit"]):
            problems[key] = [f"scalarized sent no fewer scalars than none at {key}"]
    return problems


def trace_run(rows, mode, dt_int, converged, final_err, label, m, links, tol):
    """Ledger on every (clock, err, scalars, bits) row, outcome consistency,
    and the uniform quantizer's error floor."""
    if not rows:
        return ["trace has no rows"]
    problems = []
    for clock, _, scalars, bits in rows:
        found = ledger(rounds_of(clock, mode, dt_int), scalars, bits, label, m, links)
        if found:
            problems.append(f"at clock {clock}: " + "; ".join(found))
            break
    if not math.isfinite(final_err):
        problems.append(f"final error {final_err} not finite")
    if converged and not final_err <= tol:
        problems.append(f"converged with final error {final_err} > tol {tol}")
    if label == "uniform" and not final_err >= UNIFORM_FLOOR:
        problems.append(f"uniform quantizer reached {final_err} below its floor {UNIFORM_FLOOR}")
    return problems


def cycle_spectrum(eigenvalues, n):
    """Laplacian spectrum of a unit-weight n-cycle against lambda_k = 2 - 2 cos(2 pi k / n)."""
    exact = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    got = np.asarray(eigenvalues, dtype=float)
    if got.shape != exact.shape:
        return [f"spectrum has {got.shape} values, expected {n}"]
    err = float(np.abs(got - exact).max())
    return [] if err <= SPECTRUM_TOL else [f"spectrum off the closed form by {err:.3e}"]


def certificate_at_most(name, value, minima):
    """A reported level is positive and at most every evaluated gram minimum."""
    if value is None:
        return [f"{name} not reported"]
    floor = min(minima)
    if not value > 0:
        return [f"{name} = {value} not positive"]
    if value > floor * (1 + CERT_RTOL) + CERT_ATOL:
        return [f"{name} = {value!r} exceeds the evaluated minimum {floor!r}"]
    return []


def rate_in_unit_interval(values):
    """0 < beta < 1 wherever bounds prints beta."""
    beta = values.get("beta")
    if beta is not None and not 0.0 < beta < 1.0:
        return [f"beta = {beta} outside (0, 1)"]
    return []
