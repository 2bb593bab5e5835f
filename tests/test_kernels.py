"""Properties of the fast AR kernels, checked against their slow references.

The references are the Burg lattice (``_burg_lattice``), which updates the
forward and backward error vectors stage by stage, and the kernels of
``slow_reference``: a direct cosine and sine sum for |A(f)|^2 and, for
the Levinson and MLE rows, the per-channel arithmetic they replaced: a
Levinson recursion with one ``np.dot`` per order and the MLE variance as
2 trapz(|A|^2 I).  Examples are drawn by hypothesis with a fixed
derivation, so every run checks the same inputs.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from arpsd import (
    AutocovarianceSeq,
    BurstSpec,
    Recording,
    RunConfig,
    TimeSeries,
    ar_psd,
    biased_autocov,
    burg_fit,
    default_montage,
    demean,
    detect_recording,
    difference,
    fit_sweep,
    levinson_durbin,
    mle_fit,
    order_scan,
    periodogram,
    simulate_recording,
    yule_walker_fit,
)
from arpsd import estimation
from arpsd.core import BLOCK_CHANNELS, in_rows
from arpsd.estimation import (
    _ROW_SAMPLES,
    _burg_lag_rows,
    _burg_lattice,
    _lag_block,
    _lag_rows,
    _levinson_block,
    _levinson_rows,
    _mle_sigma2,
    _transfer_mag2,
    fit_sweeps,
)
from slow_reference import _direct_mag2, _dot_levinson, _trapezoid_sweep

FS = 128.0
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def _resonance(seed, n, radius, center, noise=1.0):
    """Zero-mean two-pole resonance (poles radius * exp(+-2j pi center))
    driven by unit white noise, plus white noise of std ``noise``."""
    rng = np.random.default_rng(seed)
    a1 = -2.0 * radius * math.cos(2.0 * math.pi * center)
    a2 = radius * radius
    drive = rng.standard_normal(n + 200)
    y = np.zeros(n + 200)
    for i in range(n + 200):
        y[i] = drive[i] - a1 * y[i - 1] - a2 * y[i - 2] if i >= 2 else drive[i]
    x = y[200:] + noise * rng.standard_normal(n)
    return x - x.mean()


def _ringing(seed, n, radius, center):
    """The same two-pole resonance driven by unit white noise for 200
    samples and then left to ring down undriven: the n samples after the
    drive stops, centred."""
    rng = np.random.default_rng(seed)
    a1 = -2.0 * radius * math.cos(2.0 * math.pi * center)
    a2 = radius * radius
    y = np.zeros(n + 200)
    y[:200] = rng.standard_normal(200)
    for i in range(2, n + 200):
        y[i] -= a1 * y[i - 1] + a2 * y[i - 2]
    x = y[200:]
    return x - x.mean()


def _sine(n, hz=5.0, noise=0.0, seed=0):
    t = np.arange(n) / FS
    x = np.sin(2.0 * math.pi * hz * t)
    if noise:
        x = x + noise * np.random.default_rng(seed).standard_normal(n)
    return x


def _matrix(series):
    """The samples of ``series`` as the rows of one matrix, as a recording
    holds its channels."""
    return np.array([x.samples for x in series])


def _outcomes(blocks):
    """The ``(index, outcome)`` pairs of the blocks that ``fit_sweeps``
    yields, in order."""
    return [pair for block in blocks for pair in block]


def _lag_row(x, p):
    """The lag row of one signal: the one-row case of ``_lag_rows``."""
    return _lag_rows(x[np.newaxis], p)[0]


def _lag_stages(x, p):
    """The lag-product Burg stages of one signal to order p, ``(coeffs,
    errs, passed)``: the one-row case of ``_burg_lag_rows``."""
    coeffs, errs, passed = _burg_lag_rows(_lag_row(x, p)[np.newaxis], x.size, p)
    return coeffs[0], errs[0], int(passed[0])


def _assert_stages_match_the_lattice(x, p):
    """Every lag-product stage of x that passed the conditioning test
    agrees with the lattice; returns how many passed."""
    lag_coeffs, lag_errs, done = _lag_stages(x, p)
    ref_coeffs, ref_errs = _burg_lattice(x, p)
    lag_ks, ref_ks = np.diagonal(lag_coeffs), np.diagonal(ref_coeffs)
    assert np.all(np.abs(lag_ks[:done] - ref_ks[:done]) <= 1e-12)
    assert np.all(np.abs(lag_errs[: done + 1] - ref_errs[: done + 1]) <= 1e-12 * ref_errs[: done + 1])
    for m in range(done):
        ours, ref = lag_coeffs[m, : m + 1], ref_coeffs[m, : m + 1]
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))
    return done


signals = st.builds(
    _resonance,
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(40, 256), st.integers(256, 12_000)),
    radius=st.floats(0.0, 0.995),
    center=st.floats(0.01, 0.49),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
)


@PROPERTY
@given(x=signals, p=st.integers(1, 30))
def test_burg_reflections_bounded_and_error_non_increasing(x, p):
    p = min(p, x.size - 1)
    fit = burg_fit(TimeSeries(x, FS), p)
    lag_coeffs, lag_errs, done = _lag_stages(x, p)
    ref_coeffs, ref_errs = _burg_lattice(x, p)
    for ks, errs in (
        (fit.reflection_coeffs, fit.prediction_error_by_order),
        (np.diagonal(lag_coeffs)[:done], lag_errs[: done + 1]),
        (np.diagonal(ref_coeffs), ref_errs),
    ):
        assert np.all(np.abs(ks) <= 1.0)
        assert np.all(np.diff(errs) <= 0.0)
        assert np.all(errs >= 0.0)


@PROPERTY
@given(x=signals, p=st.integers(1, 30))
def test_lag_product_stages_match_the_lattice(x, p):
    p = min(p, x.size - 2)
    _assert_stages_match_the_lattice(x, p)


@pytest.mark.parametrize("n", [300, 2559, 9000])
def test_lag_product_stages_match_the_lattice_on_sines(n):
    # A sine's k(2) lies within a rounding error of -1, so 1 - k^2, and
    # with it the error power, is as sensitive to k as it gets.  The
    # conditioning test stops the lag products before that stage where k
    # is not known well enough (3e-6 off here without the 1 - k^2
    # factor); the stages that pass match the lattice, within the bounds of
    # test_lag_product_stages_match_the_lattice.
    for hz, d, noise in itertools.product((2.0, 5.0, 6.0, 7.5, 10.0, 23.0, 41.0), (0, 1, 2),
                                          (0.0, 1e-9, 1e-3)):
        x = np.diff(_sine(n + d, hz, noise), d)
        x = x - x.mean()
        assert _assert_stages_match_the_lattice(x, 30) < 30


def test_lag_products_serve_long_well_conditioned_inputs():
    # The pipeline's input: a differenced 5 Hz resonance in noise.
    x = np.diff(_resonance(3, 20_000, 0.95, 5.0 / FS))
    # No order cap: every stage up to 64 comes from the lag products.
    for p in (30, 64):
        lag_coeffs, _, done = _lag_stages(x - x.mean(), p)
        assert done == p
        [[(_, sweep)]] = fit_sweeps(x[np.newaxis], p)
        assert len(sweep.stages) == 1
        assert sweep.fit(p).model.coeffs.tobytes() == lag_coeffs[-1].tobytes()


@pytest.mark.parametrize("noise", [0.0, 1e-9])
def test_fallback_reproduces_the_lattice_bits_on_a_sine(noise):
    # 2,559 samples is a 20 s epoch at 128 Hz, differenced once.
    for n in (2559, 8292):
        x = _sine(n, noise=noise)
        x = x - x.mean()
        # A sine is AR(2): a later stage cancels, so the lattice runs instead.
        assert _lag_stages(x, 10)[2] < 10
        fit = burg_fit(TimeSeries(x, FS), 10, demean=False)
        coeffs, errs = _burg_lattice(x, 10)
        assert np.array_equal(fit.model.coeffs, coeffs[-1])
        assert np.array_equal(fit.reflection_coeffs, np.diagonal(coeffs))
        assert np.array_equal(fit.prediction_error_by_order, errs)


def test_fallback_keeps_a_noisy_sine_screened_as_theta():
    # Without the fallback, the cancelled lag-product stages give an
    # unstable model here, and the channel lands in errors.
    for n in (2560, 8292):
        recording = Recording({"sine": TimeSeries(_sine(n, noise=1e-9), FS)})
        report = detect_recording(recording, RunConfig())
        assert report.errors == {}
        (decision,) = report.per_channel
        assert decision.dominant_band == "theta"


def _row_signal(kind, seed, n):
    """A signal whose lag-product stages end in a known way: a resonance at
    pole radius 0.995 ringing down undriven ("sharp") and a sine stop
    after one or two, a constant stops at the first, and "overflow" has
    lag products of inf.  A driven resonance may pass every stage, even a
    noise-free one at radius 0.995 (most often near a quarter of the
    sample rate, where its variance is smallest): its drive keeps each
    stage's error energy up against the bound on what the forms add."""
    rng = np.random.default_rng(seed)
    if kind == "resonance":
        x = _resonance(seed, n, rng.uniform(0.0, 0.99), rng.uniform(0.01, 0.49), 1.0)
    elif kind == "sharp":
        x = _ringing(seed, n, 0.995, rng.uniform(0.01, 0.49))
    elif kind == "sine":
        x = _sine(n, hz=rng.uniform(1.0, 60.0))
    elif kind == "constant":
        x = np.zeros(n)
    else:
        x = 1e160 * rng.standard_normal(n)
    return x - x.mean()


def _assert_same_stages(ours, row, ref, ref_row, stages):
    """Row ``row`` of the ``_burg_lag_rows`` result ``ours`` and row
    ``ref_row`` of ``ref`` have the same bits in their first ``stages``
    stages, which both passed."""
    (coeffs, errs, passed), (ref_coeffs, ref_errs, ref_passed) = ours, ref
    assert passed[row] >= stages and ref_passed[ref_row] >= stages
    assert (coeffs[row, :stages, :stages].tobytes()
            == ref_coeffs[ref_row, :stages, :stages].tobytes())
    assert errs[row, : stages + 1].tobytes() == ref_errs[ref_row, : stages + 1].tobytes()


def _same_outcome(ours, ref):
    if isinstance(ref, Exception):
        return type(ours) is type(ref) and str(ours) == str(ref)
    return ours == ref


@PROPERTY
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["resonance", "sharp", "sine", "constant", "overflow"]),
                  st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=6,
    ),
    n=st.one_of(st.integers(40, 1000), st.integers(2400, 2700), st.integers(8192, 8700)),
    p=st.integers(1, 30),
    shorter=st.integers(1, 30),
)
def test_lag_rows_give_every_row_the_bits_of_its_one_row_call(rows, n, p, shorter):
    p = min(p, n - 2)
    shorter = min(shorter, p)
    series = [TimeSeries(_row_signal(kind, seed, n), FS) for kind, seed in rows]
    centred = [x.samples - x.samples.mean() for x in series]
    # The products of an overflowing row add up to inf or inf - inf.
    with np.errstate(over="ignore", invalid="ignore"):
        lag_rows = np.stack([_lag_row(x, p) for x in centred])
        short_rows = np.stack([_lag_row(x, shorter) for x in centred])
    if all(kind != "overflow" for kind, _ in rows):
        together = _burg_lag_rows(lag_rows, n, p)
        prefixes = _burg_lag_rows(short_rows, n, shorter)
        for row, (kind, _) in enumerate(rows):
            alone = _burg_lag_rows(lag_rows[row : row + 1], n, p)
            done = int(alone[2][0])
            assert together[2][row] == done
            _assert_same_stages(together, row, alone, 0, done)
            # The sweep to the lower order is a prefix of this one.
            assert prefixes[2][row] == min(done, shorter)
            _assert_same_stages(prefixes, row, alone, 0, min(done, shorter))
            assert done <= {"resonance": p, "sharp": 2, "sine": 2, "constant": 0}[kind]
    # The public form, with the lattice taking over from a failed stage;
    # an overflowing row raises for the whole block, which then runs each
    # row alone.
    with np.errstate(all="raise"):
        outcomes = _outcomes(fit_sweeps(_matrix(series), p))
        assert sorted(index for index, _ in outcomes) == list(range(len(series)))
        for row, outcome in outcomes:
            kind, x = rows[row][0], series[row]
            [[(_, alone)]] = fit_sweeps(x.samples[np.newaxis], p)
            assert _same_outcome(outcome, alone)
            if kind == "overflow":
                assert isinstance(alone, FloatingPointError)
                continue
            try:
                expected = fit_sweep(x, p, "burg")
            except ValueError as exc:
                expected = exc
            assert _same_outcome(alone, expected)
            assert not isinstance(alone, Exception) or kind == "constant"
            if not isinstance(outcome, Exception):
                for _, coeffs, errs in outcome.stages:
                    for values in (coeffs, errs):
                        assert values.base is None


def test_burg_sweeps_length_rule_and_lattice_rereads(monkeypatch):
    # Every length takes the lag-product stages, on both sides of
    # _ROW_SAMPLES; the sine's stop short, so the lattice reads it again.
    reads = []
    real_centred = estimation._centred

    def counted(rows, *args):
        reads.extend(i for row in rows for i, channel in enumerate(matrix)
                     if np.shares_memory(row, channel))
        return real_centred(rows, *args)

    monkeypatch.setattr(estimation, "_centred", counted)
    for n in (255, 256, 356, _ROW_SAMPLES + 1):
        resonance = _resonance(n, n, 0.9, 0.1)
        sine = _sine(n)
        matrix = np.array([resonance, sine])
        reads.clear()
        [block] = fit_sweeps(matrix, 10)
        outcomes = dict(block)
        assert sorted(reads) == [0, 1, 1]
        lag_coeffs, _, done = _lag_stages(resonance - resonance.mean(), 10)
        assert done == 10 and len(outcomes[0].stages) == 1
        assert outcomes[0].fit(10).model.coeffs.tobytes() == lag_coeffs[-1].tobytes()
        assert outcomes[0].fit(10).reflection_coeffs.tobytes() == np.diagonal(lag_coeffs).tobytes()
        assert len(outcomes[1].stages) == 2
        assert _lag_row(resonance - resonance.mean(), 10).shape == (31,)


def test_fit_sweeps_read_the_rows_of_the_matrix_as_views(monkeypatch):
    # Every long channel, and a fault-free block of short channels, is read
    # as a view of the matrix; only a block read again without its faulty
    # channel takes a copy of the others.
    reads = []
    real_centred = estimation._centred

    def spied(rows, *args):
        reads.append(np.shares_memory(rows, matrix))
        return real_centred(rows, *args)

    monkeypatch.setattr(estimation, "_centred", spied)
    rng = np.random.default_rng(3)
    for n, count in ((256, 1), (_ROW_SAMPLES + 1, 3)):
        matrix = rng.standard_normal((3, n))
        reads.clear()
        outcomes = _outcomes(fit_sweeps(matrix, 4, "burg", diff_order=1))
        assert reads == [True] * count
        assert not any(isinstance(outcome, Exception) for _, outcome in outcomes)
    matrix = rng.standard_normal((3, 256))
    matrix[1, 5] = np.inf
    reads.clear()
    outcomes = _outcomes(fit_sweeps(matrix, 4, "burg", diff_order=1))
    assert reads == [True, False]
    assert [isinstance(outcome, ValueError) for _, outcome in outcomes] == [False, True, False]


def test_fit_sweeps_refuse_channels_of_more_than_one_length():
    # A recording, whose samples fit_sweeps reads, holds channels of one
    # length; a matrix of no channels yields no block.
    message = "^all channels must have the same sample count$"
    channels = {"a": TimeSeries(np.arange(8.0), FS), "b": TimeSeries(np.arange(9.0) ** 2, FS)}
    with pytest.raises(ValueError, match=message):
        Recording(channels)
    assert list(fit_sweeps(np.empty((0, 8)), 2)) == []


@pytest.mark.parametrize("count", [1, BLOCK_CHANNELS, BLOCK_CHANNELS + 1, 2 * BLOCK_CHANNELS + 3])
def test_fit_sweeps_yield_one_list_per_block(count):
    # Constants on each side of the first block edge end in their errors,
    # in place in their blocks.
    rng = np.random.default_rng(count)
    signals = [rng.standard_normal(64) for _ in range(count)]
    for index in (BLOCK_CHANNELS - 1, BLOCK_CHANNELS):
        if index < count:
            signals[index] = np.full(64, 1.5)
    channels = [TimeSeries(x, FS) for x in signals]
    blocks = list(fit_sweeps(_matrix(channels), 4, "burg", diff_order=1))
    starts = range(0, count, BLOCK_CHANNELS)
    assert [[index for index, _ in block] for block in blocks] == [
        list(range(start, min(start + BLOCK_CHANNELS, count))) for start in starts
    ]
    for index, outcome in _outcomes(blocks):
        if np.all(signals[index] == 1.5):
            assert isinstance(outcome, ValueError) and str(outcome) == "degenerate signal"
        else:
            assert outcome == fit_sweep(demean(difference(channels[index], 1)), 4)


@pytest.mark.parametrize("method", ["burg", "yule_walker", "mle"])
def test_fit_sweeps_yield_each_channels_error(method):
    signals = [TimeSeries(x, FS) for x in (np.arange(5.0), np.arange(5.0) ** 2, np.full(5, 3.0))]
    outcomes = dict(_outcomes(fit_sweeps(_matrix(signals), 2, method, grid_size=8)))
    assert sorted(outcomes) == [0, 1, 2]
    for index in (0, 1):
        assert outcomes[index] == fit_sweep(signals[index], 2, method, grid_size=8)
    flat = "degenerate signal" if method == "burg" else "zero-variance signal"
    assert isinstance(outcomes[2], ValueError) and str(outcomes[2]) == flat
    cases = [(0, 512, "order must be at least 1"), (5, 512, "need more samples than the model order")]
    if method == "mle":
        cases.append((3, 5, "grid too coarse for order"))
    for p, grid_size, message in cases:
        [[(_, outcome)]] = fit_sweeps(np.arange(5.0)[np.newaxis], p, method, grid_size)
        assert isinstance(outcome, ValueError) and str(outcome) == message


def _levinson_signal(kind, seed, n):
    """A signal whose Levinson and MLE rows end in a known way: a sine in
    1e-9 noise takes the trapezoid from order 2 on, a resonance may not."""
    rng = np.random.default_rng(seed)
    if kind == "resonance":
        return _resonance(seed, n, rng.uniform(0.0, 0.99), rng.uniform(0.01, 0.49), 1.0)
    if kind == "sharp":
        return _resonance(seed, n, 0.995, rng.uniform(0.01, 0.49), noise=0.0)
    return _sine(n, hz=rng.uniform(1.0, 60.0), noise=1e-9, seed=seed)


def _levinson_inputs(rows, n, p, grid_size):
    """(r, c, I) rows of the signals; "nonpd" is a resonance whose r(2) is
    set to r(0) and r(1) to 0, so that |k(2)| = 1, and "zero" has r = 0."""
    series = [TimeSeries(_levinson_signal(kind, seed, n), FS) for kind, seed in rows]
    r = np.array([biased_autocov(x, p).values for x in series])
    for row, (kind, _) in enumerate(rows):
        if kind == "nonpd" and p >= 2:
            r[row, 1], r[row, 2] = 0.0, r[row, 0]
        elif kind == "zero":
            r[row] = 0.0
    pgrams = np.array([periodogram(TimeSeries(x.samples - x.samples.mean(), FS), grid_size).values
                       for x in series])
    autocovs = np.fft.irfft(pgrams, 2 * (grid_size - 1))[:, : p + 1]
    return series, r, autocovs, pgrams


def _levinson_outcomes(r, p):
    """The ``(coeffs, errs)`` that one ``_levinson_rows`` call over the rows
    of ``r``, run through ``in_rows``, gives each row, or the message of
    the ValueError that the row ends in."""
    outcomes = in_rows(list(r), lambda rows: list(zip(*_levinson_rows(np.array(rows), p))))
    assert all(type(o) is ValueError for o in outcomes if isinstance(o, Exception))
    return [str(o) if isinstance(o, Exception) else o for o in outcomes]


def _fault(outcome):
    return outcome if isinstance(outcome, str) else None


@PROPERTY
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["resonance", "sharp", "sine", "nonpd", "zero"]),
                  st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=6,
    ),
    n=st.integers(64, 3000),
    p=st.integers(1, 30),
    shorter=st.integers(1, 30),
)
def test_levinson_and_mle_rows_give_every_row_the_bits_of_its_one_row_call(rows, n, p, shorter):
    shorter = min(shorter, p)
    series, r, autocovs, pgrams = _levinson_inputs(rows, n, p, 128)
    together = _levinson_outcomes(r, p)
    faults = [_fault(outcome) for outcome in together]
    ok = [row for row, fault in enumerate(faults) if fault is None]
    coeffs = np.array([together[row][0] for row in ok])
    sigma2 = _mle_sigma2(coeffs, autocovs[ok], pgrams[ok]) if ok else None
    # The same rows in reverse order, and the sweeps to a lower order.
    back = _levinson_outcomes(r[::-1], p)
    lower = _levinson_outcomes(r[:, : shorter + 1], shorter)
    for row, (kind, _) in enumerate(rows):
        (single,) = _levinson_outcomes(r[row : row + 1], p)
        alone_fault = _fault(single)
        assert faults[row] == _fault(back[-1 - row]) == alone_fault
        expected = {"zero": "degenerate autocovariance",
                    "nonpd": "non-positive-definite autocovariance" if p >= 2 else None}
        assert alone_fault == expected.get(kind)
        if alone_fault is not None:
            continue
        alone_coeffs, alone_errs = single
        for ours in (together[row], back[-1 - row]):
            assert ours[0].tobytes() == alone_coeffs.tobytes()
            assert ours[1].tobytes() == alone_errs.tobytes()
        assert _fault(lower[row]) is None
        low_coeffs, low_errs = lower[row]
        assert low_coeffs.tobytes() == together[row][0][:shorter, :shorter].tobytes()
        assert low_errs.tobytes() == together[row][1][: shorter + 1].tobytes()
        alone = _mle_sigma2(alone_coeffs[np.newaxis], autocovs[row : row + 1],
                            pgrams[row : row + 1])[0]
        assert sigma2[ok.index(row)].tobytes() == alone.tobytes()
        low = _mle_sigma2(low_coeffs[np.newaxis], autocovs[row : row + 1, : shorter + 1],
                          pgrams[row : row + 1])[0]
        assert low.tobytes() == alone[:shorter].tobytes()
    if len(ok) > 1:
        flipped = _mle_sigma2(coeffs[::-1], autocovs[ok[::-1]], pgrams[ok[::-1]])
        assert flipped[::-1].tobytes() == sigma2.tobytes()
    # The public form.
    for method in ("yule_walker", "mle"):
        outcomes = dict(_outcomes(fit_sweeps(_matrix(series), p, method, 128)))
        assert sorted(outcomes) == list(range(len(series)))
        for row, x in enumerate(series):
            try:
                expected = fit_sweep(x, p, method, 128)
            except ValueError as exc:
                expected = exc
            assert _same_outcome(outcomes[row], expected)
            if not isinstance(expected, Exception):
                assert outcomes[row].sigma2_by_order.tobytes() == expected.sigma2_by_order.tobytes()
                for values in (*outcomes[row].stages[0][1:], outcomes[row].sigma2_by_order):
                    assert values.base is None


def _relative(ours, ref):
    """Largest difference relative to the largest reference entry."""
    return float(np.max(np.abs(np.asarray(ours) - ref)) / np.max(np.abs(ref)))


def _pointwise(ours, ref):
    """Largest difference relative to its own (positive) reference entry."""
    return float(np.max(np.abs(np.asarray(ours) - ref) / ref))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_levinson_and_mle_rows_agree_with_the_per_channel_arithmetic(seed):
    # Within 1e-12 relative of the per-channel arithmetic on a montage with
    # bursts and a near-sine, whose MLE variance cancels in closed form
    # and takes the trapezoid.
    n, p, grid_size = 2560, 30, 512
    bursts = [BurstSpec(name, 5.0, 0.95) for name in ("F8-T4", "T3-T5", "Cz-Pz")]
    recording, _ = simulate_recording(default_montage(), n, FS, 1.0, bursts, 10.0, seed)
    sine = TimeSeries(_sine(n, 6.0, noise=1e-9, seed=seed), FS)
    channels = [demean(difference(x, 1)) for x in (*recording.channels.values(), sine)]
    sweeps = {method: dict(_outcomes(fit_sweeps(_matrix(channels), p, method)))
              for method in ("yule_walker", "mle")}
    for index, x in enumerate(channels):
        coeffs_by_order, ks, errs = _dot_levinson(biased_autocov(x, p).values, p)
        sigma2 = {"yule_walker": errs[1:], "mle": _trapezoid_sweep(coeffs_by_order, x, grid_size)}
        for method, by_index in sweeps.items():
            sweep = by_index[index]
            assert _pointwise(sweep.sigma2_by_order, sigma2[method]) <= 1e-12
            for order in range(1, p + 1):
                fit = sweep.fit(order)
                assert _relative(fit.model.coeffs, coeffs_by_order[order - 1]) <= 1e-12
                assert _relative(fit.reflection_coeffs, ks[:order]) <= 1e-12
                assert _pointwise(fit.prediction_error_by_order, errs[: order + 1]) <= 1e-12
                model = type(fit.model)(order, coeffs_by_order[order - 1], sigma2[method][order - 1])
                ref_psd = ar_psd(model, grid_size).values
                assert _pointwise(ar_psd(fit.model, grid_size).values, ref_psd) <= 1e-12
    # The near-sine takes the trapezoid at every order from 2 on, and gets
    # its bits, which the closed form alone does not.
    near_sine = sweeps["mle"][len(channels) - 1].sigma2_by_order
    coeffs_by_order = _dot_levinson(biased_autocov(channels[-1], p).values, p)[0]
    today = _trapezoid_sweep(coeffs_by_order, channels[-1], grid_size)
    assert near_sine[1:].tobytes() == today[1:].tobytes()
    limit = estimation._MLE_CANCELLATION_LIMIT
    try:
        estimation._MLE_CANCELLATION_LIMIT = np.inf
        closed = fit_sweep(channels[-1], p, "mle").sigma2_by_order
    finally:
        estimation._MLE_CANCELLATION_LIMIT = limit
    assert all(ours != ref for ours, ref in zip(closed[1:].tolist(), today[1:].tolist()))


@PROPERTY
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=40),
    grid_size=st.one_of(st.just(2), st.just(3), st.integers(2, 600)),
)
def test_fft_transfer_matches_the_direct_sum(coeffs, grid_size):
    coeffs = np.array(coeffs, dtype=np.float64)
    fast = _transfer_mag2(coeffs, grid_size)
    direct = _direct_mag2(coeffs, grid_size)
    assert fast.shape == (grid_size,)
    # Both sums round each term; the error scales with (1 + sum |a|)^2.
    scale = (1.0 + np.abs(coeffs).sum()) ** 2
    assert np.max(np.abs(fast - direct)) <= 1e-13 * scale


def test_fft_transfer_folds_orders_beyond_the_period():
    # grid_size 2 has period 2: A(0) = 1 + sum a, A(1/2) = 1 + sum (-1)^i a(i).
    coeffs = np.array([0.5, -0.25, 0.125, 2.0, -1.0])
    assert np.allclose(_transfer_mag2(coeffs, 2), [2.375**2, (1 - 0.5 - 0.25 - 0.125 + 2.0 + 1.0) ** 2],
                       rtol=1e-15, atol=0.0)
    assert np.allclose(_transfer_mag2(coeffs, 3), _direct_mag2(coeffs, 3), rtol=1e-14, atol=1e-14)


FITTERS = {
    "burg": burg_fit,
    "yule_walker": yule_walker_fit,
    "mle": lambda x, p: mle_fit(x, p, grid_size=128),
}


def _assert_same_fit(ours, ref):
    assert ours.method == ref.method
    assert ours.model.order_p == ref.model.order_p
    assert np.array_equal(ours.model.coeffs, ref.model.coeffs)
    assert ours.model.sigma2 == ref.model.sigma2
    assert np.array_equal(ours.reflection_coeffs, ref.reflection_coeffs)
    assert np.array_equal(ours.prediction_error_by_order, ref.prediction_error_by_order)


@PROPERTY
@given(
    x=signals,
    method=st.sampled_from(sorted(FITTERS)),
    p_max=st.integers(1, 30),
    data=st.data(),
)
def test_sweep_fit_equals_a_refit_bit_for_bit(x, method, p_max, data):
    p_max = min(p_max, 64, x.size - 3)
    series = TimeSeries(x, FS)
    sweep = fit_sweep(series, p_max, method, grid_size=128)
    p = data.draw(st.integers(1, p_max))
    _assert_same_fit(sweep.fit(p), FITTERS[method](series, p))
    assert sweep.sigma2_by_order[p - 1] == FITTERS[method](series, p).model.sigma2


def test_sweep_switching_to_the_lattice_midway_equals_refits():
    # Two sines are AR(4), so a lag-product stage up to the fifth cancels;
    # orders from there on come from the lattice, lower ones keep lag products.
    n = 356
    x = _sine(n, 5.0, noise=1e-9) + 0.5 * _sine(n, 11.0)
    series = TimeSeries(x, FS)
    sweep = fit_sweep(series, 12, "burg")
    assert len(sweep.stages) == 2 and 1 < sweep.stages[1][0] <= 5
    for p in range(1, 13):
        _assert_same_fit(sweep.fit(p), burg_fit(series, p))
    scan = order_scan(series, p_max=12)
    _assert_same_fit(scan.fit, burg_fit(series, scan.selected_p))


def test_sweep_rejects_orders_outside_its_range():
    sweep = fit_sweep(TimeSeries(_resonance(0, 200, 0.9, 0.1), FS), 5)
    for p in (0, 6):
        with pytest.raises(ValueError, match="outside"):
            sweep.fit(p)
    with pytest.raises(ValueError, match="unknown method"):
        fit_sweep(TimeSeries(_resonance(0, 200, 0.9, 0.1), FS), 5, "welch")


@pytest.mark.parametrize("method", ["burg", "yule_walker", "mle"])
def test_a_sweeps_arrays_cannot_be_written(method):
    # A write to sigma2_by_order once went through, and fit(5) then raised
    # "sigma2 must be nonnegative and finite".  The sine's Burg sweep has a
    # lattice stage besides its lag-product one.
    noise = np.random.default_rng(0).standard_normal(300)
    for x, stages in ((noise, 1), (_sine(300), 2 if method == "burg" else 1)):
        sweep = fit_sweep(TimeSeries(x, FS), 5, method)
        assert len(sweep.stages) == stages
        for values in (sweep.sigma2_by_order, *(a for _, *arrays in sweep.stages for a in arrays)):
            assert values.base is None
            with pytest.raises(ValueError, match="assignment destination is read-only"):
                values[-1] = -1.0
        assert sweep.fit(5) == fit_sweep(TimeSeries(x, FS), 5, method).fit(5)


@PROPERTY
@given(spectrum=st.lists(st.floats(0.05, 20.0), min_size=17, max_size=64), p=st.integers(1, 30))
def test_levinson_matches_the_dense_toeplitz_solve(spectrum, p):
    # The autocovariance of a spectrum within [0.05, 20] gives Toeplitz
    # matrices whose eigenvalues lie in that range: condition number <= 400.
    r = np.fft.irfft(spectrum)
    fit = levinson_durbin(AutocovarianceSeq(r[: p + 1]), p)
    for order in range(1, p + 1):
        direct = np.linalg.solve(toeplitz(r[:order]), -r[1 : order + 1])
        error = r[0] + direct @ r[1 : order + 1]
        assert abs(fit.prediction_error_by_order[order] - error) <= 1e-12 * error
    assert np.max(np.abs(fit.model.coeffs - direct)) <= 1e-11 * max(1.0, np.max(np.abs(direct)))
    assert abs(fit.model.sigma2 - error) <= 1e-12 * error


# --- channels as rows of one matrix ----------------------------------------


@pytest.mark.parametrize("n", [300, 2559, 9999, 10_000, 10_001, 20_000])
def test_numpy_row_calls_keep_the_bits_of_one_dimensional_calls(n):
    # The row forms of the fit's reads rest on these NumPy behaviours; a
    # NumPy that breaks one fails here before any digest moves.  The rows
    # are views of a wider matrix, as the fit's reused rows are.
    rng = np.random.default_rng(n)
    wide = np.zeros((7, n + 13))
    rows = wide[:, :n]
    rows[:] = rng.standard_normal((7, n)) * rng.uniform(1e-3, 1e3, (7, 1)) + rng.normal(0, 5, (7, 1))
    means = rows.mean(axis=1)
    grid_size = 512
    period = 2 * (grid_size - 1)
    wraps = -(-n // period)
    padded = np.zeros((7, wraps * period))
    padded[:, :n] = rows
    folded = padded.reshape(7, wraps, period).sum(axis=1)
    spectra = np.fft.rfft(folded, axis=-1)
    pgrams = (spectra.real**2 + spectra.imag**2) / n
    circular = np.fft.irfft(pgrams, period, axis=-1)
    for lag in (0, 1, 2, 17, 30):
        stacked = np.matmul(rows[:, np.newaxis, : n - lag], rows[:, lag:, np.newaxis])[:, 0, 0]
        for row, x in enumerate(rows):
            assert stacked[row].tobytes() == np.dot(x[: n - lag], x[lag:]).tobytes()
    for row, x in enumerate(rows):
        x = x.copy()
        assert means[row].tobytes() == x.mean().tobytes()
        alone = np.zeros(wraps * period)
        alone[:n] = x
        alone = alone.reshape(wraps, period).sum(axis=0)
        assert folded[row].tobytes() == alone.tobytes()
        assert spectra[row].tobytes() == np.fft.rfft(alone).tobytes()
        assert circular[row].tobytes() == np.fft.irfft(pgrams[row], period).tobytes()


def _raw_channel(kind, seed, n):
    """A raw channel of n samples: a noisy resonance with an offset, a
    noise-free resonance or a sine (whose Burg stages stop short and whose
    MLE variance takes the trapezoid), a constant, samples of +-1.5e308
    (whose differences overflow), or noise scaled by 1e160 (whose lag
    products overflow)."""
    rng = np.random.default_rng(seed)
    if kind in ("resonance", "sharp", "sine"):
        x = _row_signal(kind, seed, n)
        return x + rng.uniform(-3.0, 3.0) if kind == "resonance" else x
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "overflow":
        return 1.5e308 * (-1.0) ** np.arange(n)
    return 1e160 * rng.standard_normal(n)


def _same_bits(ours, ref):
    """The same error, or sweeps whose every array has the same bytes."""
    if isinstance(ref, Exception) or isinstance(ours, Exception):
        return type(ours) is type(ref) and str(ours) == str(ref)
    if ours.method != ref.method or len(ours.stages) != len(ref.stages):
        return False
    if ours.sigma2_by_order.tobytes() != ref.sigma2_by_order.tobytes():
        return False
    for (first, coeffs, errs), (ref_first, ref_coeffs, ref_errs) in zip(ours.stages, ref.stages):
        if first != ref_first or coeffs.shape != ref_coeffs.shape:
            return False
        if coeffs.tobytes() != ref_coeffs.tobytes() or errs.tobytes() != ref_errs.tobytes():
            return False
    return True


def _per_channel_sweep(x, p, method, grid_size, diff_order):
    """The sweep of one good channel from the per-channel arithmetic: 1-D
    np.subtract and mean, one np.dot per lag, the 1-D fold, rfft and irfft,
    fed to the block kernels with one row.  Also checks that the one-row
    functions ``_lag_row``, ``biased_autocov`` and ``periodogram`` give
    that arithmetic's bits."""
    samples = x
    if diff_order is not None:
        for _ in range(diff_order):
            samples = np.subtract(samples[1:], samples[:-1])
        samples = samples - samples.mean()
    centred = samples - samples.mean()
    n = centred.size
    lags = np.array([np.dot(centred[: n - lag], centred[lag:]) for lag in range(p + 1)])
    if method == "burg":
        lag_row = np.concatenate((lags, centred[:p], centred[: n - p - 1 : -1]))
        assert _lag_row(centred, p).tobytes() == lag_row.tobytes()
        return _lag_block([(0, lag_row)], p, n, lambda _: centred)[0]
    r = lags / n
    assert biased_autocov(TimeSeries(samples, FS), p).values.tobytes() == r.tobytes()
    spectrum = None
    if method == "mle":
        period = 2 * (grid_size - 1)
        wraps = -(-n // period)
        padded = np.zeros(wraps * period)
        padded[:n] = centred
        transform = np.fft.rfft(padded.reshape(wraps, period).sum(axis=0))
        pgram = (transform.real**2 + transform.imag**2) / n
        assert periodogram(TimeSeries(centred, FS), grid_size).values.tobytes() == pgram.tobytes()
        spectrum = (np.fft.irfft(pgram, period)[: p + 1], pgram)
    return _levinson_block([(0, (r, spectrum))], p, method)[0]


_LENGTHS = st.one_of(
    st.integers(0, 600), st.integers(2400, 2700), st.integers(_ROW_SAMPLES - 10, _ROW_SAMPLES + 10),
    st.just(12_000),
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    channels=st.lists(
        st.tuples(
            st.sampled_from(["resonance", "resonance", "sharp", "sine", "constant", "overflow",
                             "huge", "short"]),
            st.integers(0, 2**32 - 1),
            st.booleans(),
        ),
        min_size=1,
        max_size=7,
    ),
    lengths=st.tuples(_LENGTHS, _LENGTHS),
    method=st.sampled_from(["burg", "yule_walker", "mle"]),
    p=st.integers(1, 30),
    diff_order=st.sampled_from([None, 0, 1, 2]),
    errstate=st.sampled_from(["raise", "ignore"]),
)
def test_each_channel_of_a_block_gets_its_one_channel_outcome(channels, lengths, method, p,
                                                              diff_order, errstate):
    # Channels that fail in every stage between good ones, of two lengths
    # that may lie on either side of _ROW_SAMPLES; one call per length.
    d = diff_order or 0
    grid_size = 128
    series = []
    for kind, seed, second in channels:
        n = lengths[second]
        n = max(1, n % (p + 1 + d)) if kind == "short" else max(n, p + 2 + d)
        series.append(TimeSeries(_raw_channel(kind, seed, n), FS))
    calls = {}
    for position, x in enumerate(series):
        calls.setdefault(len(x), []).append(position)
    with np.errstate(all=errstate):
        for positions in calls.values():
            outcomes = _outcomes(
                fit_sweeps(_matrix([series[i] for i in positions]), p, method, grid_size,
                           diff_order)
            )
            assert [index for index, _ in outcomes] == list(range(len(positions)))
            for (_, outcome), position in zip(outcomes, positions):
                (kind, _, _), x = channels[position], series[position]
                _assert_one_channel_outcome(outcome, kind, x, method, p, grid_size, diff_order,
                                            errstate)


def _assert_one_channel_outcome(outcome, kind, x, method, p, grid_size, diff_order, errstate):
    """``outcome``, the sweep or error of the raw channel x of ``kind``
    from a call over several channels, is the one x gets alone."""
    [[(_, alone)]] = fit_sweeps(x.samples[np.newaxis], p, method, grid_size, diff_order)
    assert _same_bits(outcome, alone)
    if kind in ("resonance", "sharp", "sine"):
        expected = _per_channel_sweep(x.samples, p, method, grid_size, diff_order)
        assert _same_bits(outcome, expected)
        if diff_order is None:
            assert _same_bits(outcome, fit_sweep(x, p, method, grid_size))
        for _, coeffs, errs in outcome.stages:
            for values in (coeffs, errs, outcome.sigma2_by_order):
                assert values.base is None
    elif kind == "constant" and diff_order is not None:
        flat = "degenerate signal" if method == "burg" else "zero-variance signal"
        assert isinstance(outcome, ValueError) and str(outcome) == flat
    elif kind == "overflow" and diff_order:
        assert isinstance(outcome, FloatingPointError if errstate == "raise" else ValueError)
        if errstate == "ignore":
            assert str(outcome) == "samples contains non-finite values"
    elif kind == "huge" and errstate == "raise":
        assert isinstance(outcome, FloatingPointError)
        assert str(outcome) == "overflow encountered in dot"
    elif kind == "short":
        assert isinstance(outcome, ValueError)
