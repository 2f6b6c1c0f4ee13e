import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalareq.compression import (Compressor, PEWitness, compress_topk,
                                  compress_unbiased, compress_uniform, eval_ct,
                                  eval_dt, make_schedule, pe_gram_ct, pe_gram_dt,
                                  verify_pe_ct, verify_pe_dt)
import scalareq.compression as compression
from scalareq.errors import PEVerificationFailed

from oracles import (interval_gram_ct, midpoint_gram_ct, sampled_alpha, scalarize,
                     stepwise_gram_dt, unfold)

CYCLIC5 = make_schedule("cyclic-basis", 5, dwell=0.01)


def test_schedule_validation():
    with pytest.raises(ValueError, match="unknown schedule kind"):
        make_schedule("sawtooth", 2)
    with pytest.raises(ValueError, match="m >= 1"):
        make_schedule("cyclic-basis", 0)
    with pytest.raises(ValueError, match="dwell"):
        make_schedule("cyclic-basis", 3, dwell=0.0)
    with pytest.raises(ValueError, match="frequencies"):
        make_schedule("trigonometric", 4, frequencies=(1.0,))
    with pytest.raises(ValueError, match="unit vectors"):
        make_schedule("table", 2, table=[[1.0, 1.0]])
    with pytest.raises(ValueError, match="shape"):
        make_schedule("table", 3, table=[[1.0, 0.0]])
    with pytest.raises(ValueError, match="at least one stored vector"):
        make_schedule("table", 2, table=np.empty((0, 2)))


def test_period_steps():
    assert CYCLIC5.period_steps == 5
    tab = make_schedule("table", 2, table=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert tab.period_steps == 3
    assert make_schedule("trigonometric", 2, frequencies=(1.0,)).period_steps == 1


def test_eval_ct_cyclic_dwell():
    assert np.array_equal(eval_ct(CYCLIC5, 0.0), [1, 0, 0, 0, 0])
    assert np.array_equal(eval_ct(CYCLIC5, 0.037), [0, 0, 0, 1, 0])
    # wraps after one period and lands on the right interval at a
    # boundary sitting a rounding error low (0.06 - eps -> index 6)
    assert np.array_equal(eval_ct(CYCLIC5, 0.05), [1, 0, 0, 0, 0])
    assert np.array_equal(eval_ct(CYCLIC5, 6 * 0.01), [0, 1, 0, 0, 0])


def test_eval_dt_cyclic():
    assert np.array_equal(eval_dt(CYCLIC5, 0), [1, 0, 0, 0, 0])
    assert np.array_equal(eval_dt(CYCLIC5, 7), [0, 0, 1, 0, 0])


def test_eval_trigonometric():
    sched = make_schedule("trigonometric", 2, frequencies=(1.0,))
    assert np.allclose(eval_ct(sched, 0.0), [0.0, 1.0], atol=1e-15)
    t = 0.7
    assert np.allclose(eval_ct(sched, t), [np.sin(t), np.cos(t)], atol=1e-15)
    # discrete samples fall at multiples of the dwell
    sched_d = make_schedule("trigonometric", 2, dwell=0.5, frequencies=(1.0,))
    assert np.allclose(eval_dt(sched_d, 3), eval_ct(sched_d, 1.5), atol=1e-15)


@pytest.mark.parametrize("m,freqs", [(2, (1.0,)), (4, (1.0, 2.5)), (6, (0.3, 1.0, 7.0))])
def test_trigonometric_unit_norm(m, freqs):
    sched = make_schedule("trigonometric", m, frequencies=freqs)
    for t in np.linspace(0.0, 20.0, 400):
        assert abs(np.linalg.norm(eval_ct(sched, t)) - 1.0) < 1e-12


def test_eval_rejects_bad_arguments():
    with pytest.raises(ValueError, match="t >= 0"):
        eval_ct(CYCLIC5, -0.1)
    with pytest.raises(ValueError, match="k >= 0"):
        eval_dt(CYCLIC5, -1)
    # a period table has no continuous clock without a dwell, for C(t) and its grams
    no_dwell = make_schedule("cyclic-basis", 3)
    for call in (lambda: eval_ct(no_dwell, 0.0), lambda: verify_pe_ct(no_dwell, 1.0),
                 lambda: pe_gram_ct(no_dwell, 0.0, 1.0)):
        with pytest.raises(ValueError, match="cyclic-basis schedule needs a dwell"):
            call()


TABLE3 = make_schedule("table", 3, dwell=0.02,
                       table=np.array([[0.6, 0.8, 0.0], [0.0, 0.6, -0.8], [1.0, 0.0, 0.0]]))
TRIG4 = make_schedule("trigonometric", 4, frequencies=(1.0, 2.5))
TRIG4_DWELL = make_schedule("trigonometric", 4, dwell=0.3, frequencies=(1.0, 2.5))


@pytest.mark.parametrize("schedule", [CYCLIC5, TABLE3, TRIG4, TRIG4_DWELL],
                         ids=["cyclic", "table", "trig", "trig-dwell"])
@pytest.mark.parametrize("shape", [(), (7,), (3, 4)], ids=["0-d", "1-d", "2-d"])
def test_array_calls_equal_scalar_calls(schedule, shape):
    # one row per entry, each the bits of the scalar call at that entry;
    # table rows are copies
    rng = np.random.default_rng(len(shape))
    rows = None if schedule.rows is None else schedule.rows.copy()
    for evaluate, x in ((eval_dt, rng.integers(0, 10**6, size=shape)),
                        (eval_ct, rng.uniform(0.0, 1e3, size=shape))):
        got = evaluate(schedule, x)
        assert got.shape == shape + (schedule.m,)
        want = [evaluate(schedule, v) for v in np.reshape(x, -1).tolist()]
        assert np.array_equal(got.reshape(-1, schedule.m), want)
        got[...] = 7.0
        want[0][...] = 7.0
    assert rows is None or np.array_equal(schedule.rows, rows)


@pytest.mark.parametrize("schedule", [TRIG4, TRIG4_DWELL], ids=["trig", "trig-dwell"])
def test_eval_dt_checks_a_trigonometric_step_once(monkeypatch, schedule):
    # the steps are checked, not the clocks k * dwell a second time
    calls = []
    clocks = compression._clocks
    monkeypatch.setattr(compression, "_clocks",
                        lambda x, name, **kw: calls.append(name) or clocks(x, name, **kw))
    eval_dt(schedule, np.arange(5))
    eval_dt(schedule, 3)
    assert calls == ["k", "k"]


@pytest.mark.parametrize("evaluate, schedule, x, message", [
    (eval_dt, CYCLIC5, 2.7, "need whole k >= 0, got 2.7"),
    (eval_dt, TRIG4, np.array([3.0, 0.5]), "need whole k >= 0, got 0.5"),
    (eval_dt, TRIG4, np.nan, "need whole k >= 0, got nan"),
    (eval_dt, CYCLIC5, np.array([3, -2]), "need whole k >= 0, got -2"),
    (eval_dt, make_schedule("trigonometric", 2, dwell=2.0, frequencies=(1.0,)), 1e308,
     "need whole k >= 0, got 1e\\+308"),
    (eval_ct, TRIG4, np.nan, "need finite t >= 0, got nan"),
    (eval_ct, CYCLIC5, np.nan, "need finite t >= 0, got nan"),
    (eval_ct, TRIG4, np.inf, "need finite t >= 0, got inf"),
    (eval_ct, TABLE3, np.array([[0.1, -0.5]]), "need finite t >= 0, got -0.5"),
], ids=["fractional-step", "fractional-step-array", "nan-step", "negative-step-array",
        "step-whose-clock-overflows", "nan-clock-trig", "nan-clock-table", "inf-clock",
        "negative-clock-array"])
def test_eval_refuses_nan_negative_and_fractional_input(evaluate, schedule, x, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate(schedule, x)


def test_eval_reads_a_huge_table_clock_modulo_the_period():
    # the dwell index is reduced mod the period before any integer cast,
    # so it is the row of the exact integer index at any finite clock
    for t in (1e300, 3.7e19):
        row = int(np.floor(t / CYCLIC5.dwell + 1e-9)) % 5
        assert np.array_equal(eval_ct(CYCLIC5, t), np.eye(5)[row])
        assert np.array_equal(eval_ct(CYCLIC5, [t, 0.0]), np.eye(5)[[row, 0]])
    assert np.array_equal(eval_dt(TABLE3, 1e300), TABLE3.table[int(1e300) % 3])


@pytest.mark.parametrize("start", [0, 2, 7])
def test_pe_gram_dt_cyclic_full_period_is_identity(start):
    assert np.array_equal(pe_gram_dt(CYCLIC5, start, 5), np.eye(5))


def test_pe_gram_dt_partial_window():
    G = pe_gram_dt(CYCLIC5, 3, 2)
    assert np.array_equal(G, np.diag([0.0, 0.0, 0.0, 1.0, 1.0]))


def test_pe_gram_ct_cyclic_full_period():
    G = pe_gram_ct(CYCLIC5, 0.0, 0.05)
    assert np.abs(G - 0.01 * np.eye(5)).max() < 1e-12


def test_pe_gram_ct_misaligned_start():
    # exact interval sums make the gram start-independent over a period
    G = pe_gram_ct(CYCLIC5, 0.003, 0.05)
    assert np.abs(G - 0.01 * np.eye(5)).max() < 1e-12


def test_pe_gram_ct_trigonometric_full_period():
    sched = make_schedule("trigonometric", 2, frequencies=(1.0,))
    G = pe_gram_ct(sched, 0.0, 2 * np.pi)
    assert np.abs(G - np.pi * np.eye(2)).max() < 1e-14


def _pe_gram_ct_trig_loop(schedule, start, T, step=None):
    """Reference: the midpoint rule of spacing about step (T / 1000 by
    default) as one eval_ct call per point; returns (gram, points)."""
    N = max(1, int(round(T / (step if step is not None else T / 1000.0))))
    G = np.zeros((schedule.m, schedule.m))
    for i in range(N):
        C = eval_ct(schedule, start + (i + 0.5) * (T / N))
        G += np.outer(C, C)
    return (T / N) * G, N


@pytest.mark.parametrize("m,freqs", [(2, (1.0,)), (4, (1.0, 2.0)), (6, (0.5, 1.3, 3.0))])
@pytest.mark.parametrize("start,T,step", [(0.0, 2 * np.pi, None), (0.37, 2 * np.pi / 16, None),
                                          (5.0, 1.0, 0.003), (0.0, 0.01, 1.0)])
def test_pe_gram_ct_trigonometric_matches_pointwise_loop(m, freqs, start, T, step):
    # the closed form is within the midpoint rule's error bound of it
    sched = make_schedule("trigonometric", m, frequencies=freqs)
    ref, N = _pe_gram_ct_trig_loop(sched, start, T, step)
    bound = T**3 * max(freqs) ** 2 / (6 * m * N**2) + 1e-14 * T
    assert np.abs(pe_gram_ct(sched, start, T) - ref).max() <= bound


@pytest.mark.parametrize("schedule", [CYCLIC5, make_schedule("trigonometric", 2, frequencies=(1.0,))])
@pytest.mark.parametrize("start,K", [(0, 0), (-1, 3)])
def test_pe_gram_dt_rejects_empty_window_or_negative_start(schedule, start, K):
    with pytest.raises(ValueError, match="K >= 1 and start >= 0"):
        pe_gram_dt(schedule, start, K)
    # the continuous gram refuses the same window, T = K, with its own message
    with pytest.raises(ValueError, match="T > 0" if K < 1 else "start >= 0"):
        pe_gram_ct(schedule, start, K)


@pytest.mark.parametrize("check, message", [
    (lambda schedule: verify_pe_dt(schedule, 7.9), "need whole window K >= 0, got 7.9"),
    (lambda schedule: verify_pe_dt(schedule, np.nan), "need whole window K >= 0, got nan"),
    (lambda schedule: pe_gram_dt(schedule, 0, 5.5), "need whole window K >= 0, got 5.5"),
    (lambda schedule: pe_gram_dt(schedule, 1.7, 5), "need whole start >= 0, got 1.7"),
], ids=["verify-fractional-window", "verify-nan-window", "gram-fractional-window",
        "gram-fractional-start"])
@pytest.mark.parametrize("schedule", [CYCLIC5, TRIG4], ids=["cyclic", "trig"])
def test_pe_dt_refuses_a_fractional_window_or_start(schedule, check, message):
    # a window of K steps from a start step follows the rule of eval_dt's
    # steps: a fractional K or start is refused, not read as its floor
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(schedule)
    assert verify_pe_dt(schedule, 8.0) == verify_pe_dt(schedule, 8)
    assert np.array_equal(pe_gram_dt(schedule, 1.0, 5.0), pe_gram_dt(schedule, 1, 5))


RESONANT = make_schedule("trigonometric", 4, dwell=1.0, frequencies=(1.5, 1.5))


@pytest.mark.parametrize("verify, schedule", [
    (verify_pe_ct, CYCLIC5),
    (verify_pe_ct, make_schedule("trigonometric", 4, frequencies=(1.0, 2.0))),
    (verify_pe_dt, RESONANT),
    (lambda schedule, T: pe_gram_ct(schedule, 0.0, T), CYCLIC5),
    (lambda schedule, K: pe_gram_dt(schedule, 0, K), RESONANT),
], ids=["ct-cyclic", "ct-trigonometric", "dt-resonant-trigonometric", "gram-ct-cyclic",
        "gram-dt-resonant-trigonometric"])
def test_verify_pe_refuses_a_window_that_overflows_its_gram(verify, schedule):
    # f T, T / period or K phi / 2 overflows near the float maximum; the
    # witnesses and the public grams name the window instead of returning
    # inf or nan grams with a RuntimeWarning (warnings fail the suite)
    with pytest.raises(ValueError, match=r"window 1\.7e\+308 overflows the PE gram"):
        verify(schedule, 1.7e308)


def test_verify_pe_ct_cyclic_witness():
    w = verify_pe_ct(CYCLIC5, 0.05)
    assert w.window == 0.05
    assert w.alpha == pytest.approx(0.01, abs=5e-15)


def test_verify_pe_dt_cyclic_witness():
    w = verify_pe_dt(CYCLIC5, 5)
    assert w.window == 5
    assert w.alpha == pytest.approx(1.0, abs=1e-12)


def test_verify_pe_constant_vector_fails():
    frozen = make_schedule("table", 2, dwell=0.01, table=[[1.0, 0.0]])
    with pytest.raises(PEVerificationFailed) as exc:
        verify_pe_ct(frozen, 0.05)
    assert exc.value.eigenvalues is not None
    assert min(exc.value.eigenvalues) < 1e-10
    with pytest.raises(PEVerificationFailed):
        verify_pe_dt(frozen, 5)


RANK_ONE = make_schedule("table", 2, dwell=0.01, table=[[0.6, 0.8], [-0.6, -0.8], [0.6, 0.8]])
TRIG_REPEATED = make_schedule("trigonometric", 4, dwell=0.01, frequencies=(1.0, 1.0))


@pytest.mark.parametrize("verify, schedule, window", [
    (verify_pe_ct, RANK_ONE, 1e6), (verify_pe_ct, RANK_ONE, 1e15), (verify_pe_ct, RANK_ONE, 1e300),
    (verify_pe_dt, RANK_ONE, 1e6), (verify_pe_dt, RANK_ONE, 1e15), (verify_pe_dt, RANK_ONE, 1e20),
    (verify_pe_dt, TRIG_REPEATED, 1e15),
], ids=["ct-1e6", "ct-1e15", "ct-1e300", "dt-1e6", "dt-1e15", "dt-1e20", "dt-trig-1e15"])
def test_verify_pe_refuses_a_singular_gram_at_long_windows(verify, schedule, window):
    # every gram of either schedule has rank 2 or less, in m = 2 and 4
    # dimensions, so its lambda_min is 0 up to rounding, which grows with
    # the trace of the gram, its window length
    with pytest.raises(PEVerificationFailed):
        verify(schedule, window)


def _seeded_table(seed, p, m, dwell=1.0):
    """Table schedule of p unit rows in R^m drawn from seed."""
    rows = np.random.default_rng(seed).standard_normal((p, m))
    table = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return make_schedule("table", m, dwell=dwell, table=table)


@st.composite
def _table_windows(draw):
    """A random table schedule and a window that is no whole number of
    dwells (up to three periods long)."""
    m, p = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    dwell = draw(st.floats(0.01, 2.0))
    sched = _seeded_table(draw(st.integers(0, 2**32 - 1)), p, m, dwell)
    return sched, dwell * draw(st.floats(0.05, 3.0 * p).filter(lambda x: not x.is_integer()))


FREQUENCIES = st.lists(st.one_of(st.sampled_from([0.5, 1.0, 1.3, 3.0]), st.floats(0.1, 5.0)),
                       min_size=1, max_size=3)


@st.composite
def _trig_windows(draw):
    """A random trigonometric schedule, frequencies possibly repeated, and
    a window."""
    freqs = draw(FREQUENCIES)
    sched = make_schedule("trigonometric", 2 * len(freqs), frequencies=freqs)
    return sched, draw(st.floats(0.05, 20.0))


def _alpha(schedule, T):
    """The exact witness level, read off the failure below the PE floor."""
    try:
        return verify_pe_ct(schedule, T).alpha
    except PEVerificationFailed as exc:
        return exc.eigenvalues[0]


def _period(schedule):
    if schedule.kind == "trigonometric":
        return 2 * np.pi / min(schedule.frequencies)
    return schedule.period_steps * schedule.dwell


@settings(max_examples=40, deadline=None)
@given(st.one_of(_table_windows(), _trig_windows()), st.integers(0, 2**32 - 1))
@example((_seeded_table(17, 5, 3), 2.64), 0)
def test_exact_alpha_at_most_gram_minimum_at_random_starts(case, seed):
    schedule, T = case
    starts = np.random.default_rng(seed).uniform(0.0, 2 * _period(schedule), 1000)
    lam = np.linalg.eigvalsh(np.array([pe_gram_ct(schedule, a, T) for a in starts]))
    assert _alpha(schedule, T) <= lam[:, 0].min() + 1e-13 * T


@settings(deadline=None)
@given(_table_windows())
@example((_seeded_table(17, 5, 3), 2.64))
def test_exact_alpha_at_most_sampled_alpha_on_piecewise(case):
    # not on trigonometric schedules: there the sampler's midpoint rule
    # can read below the integral (1.4720997 against 1.4721057 at
    # frequencies (0.5, 1.3, 3.0), T = 4 pi)
    schedule, T = case
    assert _alpha(schedule, T) <= sampled_alpha(schedule, T) + 1e-13 * T


@settings(deadline=None)
@given(_table_windows(), st.floats(0.0, 50.0))
def test_pe_gram_ct_matches_interval_sums(case, start):
    schedule, T = case
    G = pe_gram_ct(schedule, start, T)
    assert np.abs(G - interval_gram_ct(schedule, start, T)).max() <= 1e-12 * (T + start)


@settings(deadline=None)
@given(_trig_windows(), st.floats(0.0, 50.0))
def test_trigonometric_gram_matches_midpoint_rule_as_n_grows(case, start):
    # within the midpoint rule's bound T^3 w_max^2 / (6 m N^2) at every N
    schedule, T = case
    G = pe_gram_ct(schedule, start, T)
    w, m = max(schedule.frequencies), schedule.m
    for N in (10, 100, 1000, 10000):
        err = np.abs(G - midpoint_gram_ct(schedule, start, T, N)).max()
        assert err <= T**3 * w**2 / (6 * m * N**2) + 1e-13 * (T + start)


@settings(deadline=None)
@given(_trig_windows(), st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5))
def test_trigonometric_spectrum_does_not_depend_on_start(case, starts):
    schedule, T = case
    spectra = np.linalg.eigvalsh([pe_gram_ct(schedule, a, T) for a in [0.0] + starts])
    assert np.abs(spectra - spectra[0]).max() <= 1e-13 * (T + max(starts))


def test_verify_pe_ct_exact_on_unaligned_windows():
    # seed 138, five 2-D rows, T = 1.64: evenly spaced samples read 1.3e-3,
    # the exact minimum over starts is six orders lower
    sched, T = _seeded_table(138, 5, 2), 1.64
    assert verify_pe_ct(sched, T).alpha == pytest.approx(1.0443e-9, rel=1e-4)
    assert sampled_alpha(sched, T) == pytest.approx(1.2973e-3, rel=1e-4)
    # seed 17, five 3-D rows: the minimum lies only where a window ends on a
    # dwell boundary; windows that begin on one read 1.19e-3
    sched, T = _seeded_table(17, 5, 3), 2.64
    assert verify_pe_ct(sched, T).alpha == pytest.approx(9.2081e-4, rel=1e-4)
    assert sampled_alpha(sched, T) == pytest.approx(1.0185e-3, rel=1e-4)


def test_pe_gram_long_window_is_whole_periods_plus_rest():
    table = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]])
    sched = make_schedule("table", 2, dwell=0.3, table=table)
    q, start, rest = 10**6, 0.17, 0.41
    G = pe_gram_ct(sched, start, q * 0.9 + rest)
    expect = q * pe_gram_ct(sched, start, 0.9) + pe_gram_ct(sched, start, rest)
    assert np.abs(G - expect).max() <= 1e-12 * np.abs(expect).max()
    G = pe_gram_dt(sched, 2, 3 * q + 2)
    assert np.array_equal(G, q * pe_gram_dt(sched, 2, 3) + pe_gram_dt(sched, 2, 2))


@st.composite
def _trig_step_windows(draw):
    """A trigonometric schedule of 1-3 frequencies, with no dwell (steps of
    1), a random dwell or a dwell 2 pi / N (at which half-integer
    frequencies resonate), a start and a window of K steps. The per-step
    sum rounds each clock k d and angle w k d, which moves an entry by up
    to about 1.4e-16 w k d; w d <= 1.5 pi keeps that below 1e-12 at
    k <= 1000, where a window of one step sees it undiluted."""
    freqs = draw(st.lists(st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.05, 1.5)),
                          min_size=1, max_size=3))
    dwell = draw(st.one_of(st.none(), st.floats(0.01, np.pi),
                           st.integers(2, 32).map(lambda N: 2 * np.pi / N)))
    sched = make_schedule("trigonometric", 2 * len(freqs), dwell=dwell, frequencies=freqs)
    return sched, draw(st.integers(0, 1000)), draw(st.integers(1, 5000))


@settings(max_examples=40, deadline=None)
@given(_trig_step_windows())
@example((make_schedule("trigonometric", 4, dwell=2 * np.pi / 16, frequencies=(8, 8)), 0, 17))
@example((make_schedule("trigonometric", 4, dwell=np.pi, frequencies=(0.5, 1)), 999, 5000))
@example((make_schedule("trigonometric", 4, dwell=np.pi, frequencies=(1.5, 0.5)), 1000, 3001))
def test_dirichlet_gram_matches_stepwise_sum(case):
    schedule, start, K = case
    G = pe_gram_dt(schedule, start, K)
    assert np.abs(G - stepwise_gram_dt(schedule, start, K)).max() <= 1e-12 * K


@pytest.mark.parametrize("freqs,dwell", [((8, 8), 2 * np.pi / 16), ((8, 3), 2 * np.pi / 16),
                                         ((1, 2), 2 * np.pi), ((0.5, 1), np.pi),
                                         ((1, 3), np.pi / 2)])
def test_resonant_trigonometric_steps_are_not_exciting(freqs, dwell):
    # every step repeats or mirrors a few vectors that do not span R^4
    sched = make_schedule("trigonometric", 4, dwell=dwell, frequencies=freqs)
    with pytest.raises(PEVerificationFailed):
        verify_pe_dt(sched, 64)


def test_trigonometric_steps_sixteen_per_turn_are_exciting():
    sched = make_schedule("trigonometric", 4, dwell=2 * np.pi / 16, frequencies=(1, 2))
    assert verify_pe_dt(sched, 64).alpha == pytest.approx(16.0, abs=1e-12 * 64)


@pytest.mark.parametrize("K", [10**9, int(1e300)])
def test_trigonometric_dt_gram_cost_does_not_grow_with_the_window(K):
    # the gram's trace is K, and at this dwell the steps excite every
    # direction evenly, so alpha is K / m to rounding
    sched = make_schedule("trigonometric", 4, frequencies=(1, 2))
    G = pe_gram_dt(sched, 0, K)
    assert np.trace(G) == pytest.approx(K, rel=1e-12)
    assert verify_pe_dt(sched, K).alpha == pytest.approx(K / 4, rel=1e-6)


def test_pe_witness_validation():
    with pytest.raises(ValueError, match="alpha > 0"):
        PEWitness(alpha=0.0, window=1.0)
    with pytest.raises(ValueError, match="exceeds"):
        PEWitness(alpha=2.0, window=1.0)


def test_scalarize_unfold_projection():
    C = np.array([0.0, 1.0, 0.0])
    x = np.array([1.0, 2.0, 3.0])
    y = scalarize(C, x)
    assert y == 2.0
    assert np.array_equal(unfold(C, y), [0.0, 2.0, 0.0])


@pytest.mark.parametrize("seed", range(4))
def test_projection_idempotent_and_contractive(seed):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal(6)
    C /= np.linalg.norm(C)
    x = rng.standard_normal(6)
    p = unfold(C, scalarize(C, x))
    assert np.abs(unfold(C, scalarize(C, p)) - p).max() < 1e-12
    assert np.linalg.norm(p) <= np.linalg.norm(x) + 1e-12


def test_scalarize_rejects_non_unit_vector():
    with pytest.raises(ValueError, match="unit norm"):
        scalarize(np.array([1.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError, match="unit norm"):
        unfold(np.array([0.5, 0.5]), 1.0)


class _Dither:
    """An rng stub whose uniform draw is a fixed dither (None: no draw allowed)."""

    def __init__(self, w=None):
        self.w = w

    def uniform(self, size):
        assert self.w is not None, "drew a dither"
        assert size == np.shape(self.w)
        return np.asarray(self.w, dtype=float)


def test_compress_unbiased_explicit_noise():
    x = np.array([1.0, 0.3])
    low = compress_unbiased(x, 2, _Dither([[0.0, 0.0]]))
    assert np.array_equal(low, [1.0, 0.0])
    high = compress_unbiased(x, 2, _Dither([[0.0, 0.5]]))
    assert np.array_equal(high, [1.0, 0.5])
    # signs survive quantization
    neg = compress_unbiased(np.array([-1.0, 0.3]), 2, _Dither([[0.0, 0.0]]))
    assert np.array_equal(neg, [-1.0, 0.0])


def test_compress_unbiased_zero_and_validation():
    # zero rows map to zero and draw nothing
    assert np.array_equal(compress_unbiased(np.zeros(3), 2, _Dither()), np.zeros(3))
    assert compress_unbiased(np.zeros(0), 2, _Dither()).shape == (0,)
    assert np.array_equal(compress_unbiased(np.zeros((2, 3)), 2, _Dither()), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="l >= 1"):
        compress_unbiased(np.ones(2), 0, _Dither())


def test_compress_unbiased_mean_tracks_input():
    rng = np.random.default_rng(5)
    x = np.array([0.8, -0.35, 0.1, 0.6])
    draws = compress_unbiased(np.tile(x, 4000), 2, rng=rng).reshape(4000, 4)
    assert np.abs(draws.mean(axis=0) - x).max() < 0.02


def test_compress_topk_tie_break():
    out = compress_topk(np.array([1.0, -3.0, 2.0, -2.0]), 2)
    assert np.array_equal(out, [0.0, -3.0, 2.0, 0.0])


def test_compress_topk_bounds():
    x = np.arange(4.0)
    assert np.array_equal(compress_topk(x, 4), x)
    with pytest.raises(ValueError):
        compress_topk(x, 0)
    with pytest.raises(ValueError):
        compress_topk(x, 5)


def test_compress_uniform_lattice():
    out = compress_uniform(np.array([0.4, 0.5, -0.5, 1.6, -1.2]))
    assert np.array_equal(out, [0.0, 1.0, 0.0, 2.0, -1.0])


def test_compressor_labels_and_validation():
    assert Compressor("scalarized").label == "scalarized"
    assert Compressor("topk", k=2).label == "topk(k=2)"
    assert Compressor("unbiased", l=4).label == "unbiased(l=4)"
    with pytest.raises(ValueError, match="unknown compressor"):
        Compressor("lossless")
    with pytest.raises(ValueError, match="l >= 1"):
        Compressor("unbiased")
    with pytest.raises(ValueError, match="k >= 1"):
        Compressor("topk")


def test_compressor_apply():
    assert np.array_equal(Compressor("uniform").apply(np.array([0.6, 1.4]), None), [1.0, 1.0])
    assert np.array_equal(Compressor("topk", k=1).apply(np.array([1.0, -2.0]), None),
                          [0.0, -2.0])
    rng = np.random.default_rng(0)
    out = Compressor("unbiased", l=8).apply(np.array([0.5, -0.25]), rng=rng)
    assert np.abs(out - [0.5, -0.25]).max() < 0.01
    with pytest.raises(ValueError, match="pointwise"):
        Compressor("scalarized").apply(np.zeros(2), None)
    # the dither has no default source: an unbiased call needs its rng
    with pytest.raises(TypeError):
        Compressor("unbiased", l=2).apply(np.array([0.5, -0.25]))


# entries drawn from a small set give ties in |x| and zero rows often
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0]),
                    st.floats(-1e6, 1e6, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(Compressor.BASELINES), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_row_wise_apply_equals_per_row_calls(data, kind, n, m, seed):
    X = np.array(data.draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m),
                                    min_size=n, max_size=n)))
    zero = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    X[np.array(zero)] = 0.0
    comp = Compressor(kind, l=data.draw(st.integers(1, 4)), k=data.draw(st.integers(1, m)))
    rng_whole, rng_rows = np.random.default_rng(seed), np.random.default_rng(seed)
    whole = comp.apply(X, rng=rng_whole)
    rows = np.stack([comp.apply(x, rng=rng_rows) for x in X])
    assert whole.shape == X.shape
    assert np.array_equal(whole, rows)
    # both consumed the same noise, so both generators continue alike
    assert rng_whole.random() == rng_rows.random()
    # a 1-D vector is one row
    rng_vec, rng_row = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(comp.apply(X[-1], rng=rng_vec), comp.apply(X[-1:], rng=rng_row)[0])
    assert rng_vec.random() == rng_row.random()
