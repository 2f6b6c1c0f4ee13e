import numpy as np
import pytest

from scalareq.compression import (CompressionSchedule, Compressor, PEWitness,
                                  compress_topk, compress_unbiased,
                                  compress_uniform, eval_ct, eval_dt,
                                  make_schedule, pe_gram_ct, pe_gram_dt,
                                  scalarize, unfold, verify_pe_ct,
                                  verify_pe_dt)
from scalareq.errors import PEVerificationFailed

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


def test_period_steps():
    assert CYCLIC5.period_steps == 5
    tab = make_schedule("table", 2, table=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert tab.period_steps == 3
    assert make_schedule("trigonometric", 2, frequencies=(1.0,)).period_steps == 1
    assert make_schedule("identity", 4).period_steps == 1


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
    with pytest.raises(ValueError, match="identity"):
        eval_ct(make_schedule("identity", 3), 0.0)
    with pytest.raises(ValueError, match="identity"):
        eval_dt(make_schedule("identity", 3), 0)
    with pytest.raises(ValueError, match="dwell"):
        eval_ct(make_schedule("cyclic-basis", 3), 0.0)


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


def test_pe_gram_ct_rejects_misaligned_quadrature():
    with pytest.raises(ValueError, match="align"):
        pe_gram_ct(CYCLIC5, 0.0, 0.05, quadrature_step=0.003)
    # aligned quadrature is accepted (and redundant)
    G = pe_gram_ct(CYCLIC5, 0.0, 0.05, quadrature_step=0.005)
    assert np.abs(G - 0.01 * np.eye(5)).max() < 1e-12


def test_pe_gram_ct_trigonometric_full_period():
    sched = make_schedule("trigonometric", 2, frequencies=(1.0,))
    T = 2 * np.pi
    G = pe_gram_ct(sched, 0.0, T, quadrature_step=T / 20000)
    assert np.abs(G - np.pi * np.eye(2)).max() < 1e-6


def _pe_gram_ct_trig_loop(schedule, start, T, quadrature_step=None):
    """Reference: the midpoint rule as one eval_ct call per point."""
    step = quadrature_step if quadrature_step is not None else T / 1000.0
    N = max(1, int(round(T / step)))
    G = np.zeros((schedule.m, schedule.m))
    for i in range(N):
        C = eval_ct(schedule, start + (i + 0.5) * (T / N))
        G += np.outer(C, C)
    return (T / N) * G


@pytest.mark.parametrize("m,freqs", [(2, (1.0,)), (4, (1.0, 2.0)), (6, (0.5, 1.3, 3.0))])
@pytest.mark.parametrize("start,T,step", [(0.0, 2 * np.pi, None), (0.37, 2 * np.pi / 16, None),
                                          (5.0, 1.0, 0.003), (0.0, 0.01, 1.0)])
def test_pe_gram_ct_trigonometric_matches_pointwise_loop(m, freqs, start, T, step):
    sched = make_schedule("trigonometric", m, frequencies=freqs)
    G = pe_gram_ct(sched, start, T, quadrature_step=step)
    assert np.abs(G - _pe_gram_ct_trig_loop(sched, start, T, step)).max() <= 1e-13


def test_pe_gram_identity_windows():
    ident = make_schedule("identity", 3)
    assert np.array_equal(pe_gram_dt(ident, 0, 4), 4 * np.eye(3))
    assert np.allclose(pe_gram_ct(ident, 0.0, 2.5), 2.5 * np.eye(3), atol=1e-15)


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


def test_compress_unbiased_explicit_noise():
    x = np.array([1.0, 0.3])
    low = compress_unbiased(x, 2, noise=np.array([0.0, 0.0]))
    assert np.array_equal(low, [1.0, 0.0])
    high = compress_unbiased(x, 2, noise=np.array([0.0, 0.5]))
    assert np.array_equal(high, [1.0, 0.5])
    # signs survive quantization
    neg = compress_unbiased(np.array([-1.0, 0.3]), 2, noise=np.array([0.0, 0.0]))
    assert np.array_equal(neg, [-1.0, 0.0])


def test_compress_unbiased_zero_and_validation():
    assert np.array_equal(compress_unbiased(np.zeros(3), 2), np.zeros(3))
    with pytest.raises(ValueError, match="l >= 1"):
        compress_unbiased(np.ones(2), 0, noise=np.zeros(2))
    with pytest.raises(ValueError, match="noise or an rng"):
        compress_unbiased(np.ones(2), 2)
    with pytest.raises(ValueError, match="noise"):
        compress_unbiased(np.ones(2), 2, noise=np.array([0.0, 1.0]))


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
    assert np.array_equal(Compressor("uniform").apply(np.array([0.6, 1.4])), [1.0, 1.0])
    assert np.array_equal(Compressor("topk", k=1).apply(np.array([1.0, -2.0])), [0.0, -2.0])
    rng = np.random.default_rng(0)
    out = Compressor("unbiased", l=8).apply(np.array([0.5, -0.25]), rng=rng)
    assert np.abs(out - [0.5, -0.25]).max() < 0.01
    with pytest.raises(ValueError, match="pointwise"):
        Compressor("scalarized").apply(np.zeros(2))
