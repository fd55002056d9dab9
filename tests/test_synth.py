"""Generator checks: the planted market must invert exactly under the
ingest pipeline and reproduce its own correlation design, and the chain
sampler must match the statistics of the matrix it samples from."""

import bisect

import numpy as np
import pytest

from marketstates.corrmat import EpochSpec, coarse_grain
from marketstates.errors import (
    InvalidRegime,
    NonErgodic,
    ParameterRange,
    ValidationError,
)
from marketstates.ingest import log_returns
from marketstates.markov import (
    TransitionMatrix,
    equilibrium_distribution,
    transition_matrix,
)
from marketstates.synth import (
    RegimeSpec,
    START_PRICE,
    generate_block_market,
    generate_markov_sequence,
    regime_truth_csv,
)
import marketstates as ms


def _spec(**kw):
    base = dict(
        sector_sizes=(10,) * 6,
        intra=(0.3,),
        inter=(0.1,),
        durations=(200,),
    )
    base.update(kw)
    return RegimeSpec(**base)


def test_regime_validation():
    with pytest.raises(InvalidRegime):
        _spec(intra=(1.0,), inter=(0.1,))
    with pytest.raises(InvalidRegime):
        _spec(intra=(-0.1,), inter=(0.0,))
    with pytest.raises(InvalidRegime):
        _spec(intra=(0.3,), inter=(0.5,))
    with pytest.raises(InvalidRegime):
        _spec(durations=(10,))
    # a 1-day regime covers a window this short, so the length check alone refuses it
    for length in (1, -5):
        with pytest.raises(ParameterRange, match=f"epoch length must be >= 2, got {length}"):
            _spec(durations=(1,), epoch_length=length)
    with pytest.raises(ValidationError):
        _spec(sector_sizes=())
    with pytest.raises(ValidationError):
        _spec(intra=(0.3, 0.4), inter=(0.1,), durations=(200,))
    with pytest.raises(ValidationError):
        _spec(noise_scale=0.0)
    # a nan scale writes empty price cells, an infinite one 0 and inf cells
    for noise in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite and positive"):
            _spec(noise_scale=noise)


def test_block_market_rejects_negative_seed_and_overflowing_prices():
    with pytest.raises(ParameterRange, match="seed must be >= 0"):
        generate_block_market(_spec(), seed=-1)
    # finite, but exp of the cumulated returns leaves (0, inf)
    with pytest.raises(InvalidRegime, match=r"out of \(0, inf\)"):
        generate_block_market(_spec(noise_scale=1e3), seed=0)


def test_naming_and_sector_map():
    spec = _spec(sector_sizes=(2, 3))
    assert spec.tickers() == ("S00N00", "S00N01", "S01N00", "S01N01", "S01N02")
    assert spec.sector_labels() == ("SEC00", "SEC01")
    sm = spec.sector_map()
    assert sm.assignment["S01N02"] == "SEC01"
    assert sm.sizes == {"SEC00": 2, "SEC01": 3}


def test_market_shapes_and_labels():
    spec = _spec(intra=(0.3, 0.6), inter=(0.1, 0.2), durations=(50, 70))
    table, day_labels = generate_block_market(spec, seed=0)
    assert table.prices.shape == (121, 60)
    assert len(day_labels) == 121
    assert day_labels[0] == 1
    np.testing.assert_array_equal(day_labels[1:51], 1)
    np.testing.assert_array_equal(day_labels[51:], 2)
    assert (table.prices[0] == START_PRICE).all()


def test_prices_invert_to_generated_returns():
    spec = _spec(durations=(60,))
    table, _ = generate_block_market(spec, seed=1)
    rt = log_returns(table)
    # regenerate the same returns directly from the seeded factors
    rng = np.random.default_rng(1)
    a, b, d = 0.3, 0.1, 60
    g = rng.standard_normal((d, 1))
    f = rng.standard_normal((d, 6))
    e = rng.standard_normal((d, 60))
    sector_of = np.repeat(np.arange(6), 10)
    want = 0.02 * (
        np.sqrt(b) * g + np.sqrt(a - b) * f[:, sector_of] + np.sqrt(1 - a) * e
    )
    np.testing.assert_allclose(rt.returns, want, atol=1e-12)


def test_determinism_per_seed():
    spec = _spec()
    a, la = generate_block_market(spec, seed=7)
    b, lb = generate_block_market(spec, seed=7)
    np.testing.assert_array_equal(a.prices, b.prices)
    np.testing.assert_array_equal(la, lb)
    c, _ = generate_block_market(spec, seed=8)
    assert not np.array_equal(a.prices, c.prices)


def test_zero_correlation_regime():
    spec = _spec(intra=(0.0,), inter=(0.0,), durations=(5001,))
    table, _ = generate_block_market(spec, seed=2)
    rt = log_returns(table)
    c = np.corrcoef(rt.returns.T)
    off = c[~np.eye(60, dtype=bool)]
    assert abs(off.mean()) < 0.03


def test_planted_levels_recovered_by_coarse_graining():
    spec = _spec(intra=(0.9,), inter=(0.1,), durations=(5001,))
    table, _ = generate_block_market(spec, seed=3)
    rt = log_returns(table)
    full = ms.epoch_correlation(rt, 0, EpochSpec(length=5000, shift=1))
    g = coarse_grain(full, spec.sector_map()).full()
    diag = np.diag(g)
    offd = g[~np.eye(6, dtype=bool)]
    assert np.abs(diag - 0.9).max() < 0.03
    assert np.abs(offd - 0.1).max() < 0.03


def test_regime_truth_csv_format():
    spec = _spec(durations=(25,))
    table, labels = generate_block_market(spec, seed=4)
    text = regime_truth_csv(table, labels)
    lines = text.strip().split("\n")
    assert lines[0] == "date,regime"
    assert len(lines) == 27
    day, regime = lines[1].split(",")
    assert day == table.dates[0].isoformat()
    assert regime == "1"
    with pytest.raises(ValidationError):
        regime_truth_csv(table, labels[:-1])


def test_markov_sequence_identity_matrix_is_constant():
    seq = generate_markov_sequence(np.eye(3), length=40, seed=5)
    assert (seq.states == seq.states[0]).all()
    assert seq.k == 3


def test_markov_sequence_length_one():
    seq = generate_markov_sequence(np.array([[0.5, 0.5], [0.5, 0.5]]), 1, seed=6)
    assert len(seq.states) == 1
    assert seq.states[0] in (1, 2)


def test_markov_sequence_frequencies_and_recovery():
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    seq = generate_markov_sequence(p, length=100_000, seed=7)
    freq = np.bincount(seq.states - 1, minlength=2) / len(seq.states)
    np.testing.assert_allclose(freq, [2 / 3, 1 / 3], atol=0.01)
    t = transition_matrix(seq)
    np.testing.assert_allclose(t.probs, p, atol=0.01)


def test_markov_sequence_determinism_and_validation():
    p = np.array([[0.7, 0.3], [0.4, 0.6]])
    a = generate_markov_sequence(p, 500, seed=8)
    b = generate_markov_sequence(p, 500, seed=8)
    np.testing.assert_array_equal(a.states, b.states)
    with pytest.raises(ParameterRange):
        generate_markov_sequence(p, 0, seed=0)
    with pytest.raises(ParameterRange, match="seed must be >= 0"):
        generate_markov_sequence(p, 10, seed=-1)
    with pytest.raises(ValidationError):
        generate_markov_sequence(np.array([[0.5, 0.4], [0.5, 0.5]]), 10, seed=0)
    with pytest.raises(ValidationError):
        generate_markov_sequence(np.ones((2, 3)) / 3, 10, seed=0)


def _per_step_bisect_sampler(p, length, seed):
    """Reference sampler: one Python step per state, inverting the row
    CDF with bisect after an equilibrium-drawn start."""
    k = p.shape[0]
    t = TransitionMatrix(k=k, counts=np.zeros((k, k), dtype=np.int64), probs=p,
                         n_transitions=0)
    rng = np.random.default_rng(seed)
    s = int(rng.choice(k, p=equilibrium_distribution(t).pi))
    states = [s + 1]
    cum_rows = [list(np.cumsum(p[i])) for i in range(k)]
    for u in rng.random(length - 1):
        s = min(bisect.bisect_right(cum_rows[s], u), k - 1)
        states.append(s + 1)
    return np.array(states)


def test_markov_sequence_matches_per_step_bisect_reference():
    rng = np.random.default_rng(12)
    for trial in range(40):
        k = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(k), size=k)
        length = int(rng.integers(1, 3001)) if trial else 1
        seq = generate_markov_sequence(p, length, seed=trial)
        np.testing.assert_array_equal(seq.states, _per_step_bisect_sampler(p, length, trial))


def test_markov_sequence_periodic_chain_propagates():
    p = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    with pytest.raises(NonErgodic):
        generate_markov_sequence(p, 10, seed=9)


def test_transition_matrix_input_accepted():
    base = generate_markov_sequence(
        np.array([[0.8, 0.2], [0.3, 0.7]]), 5000, seed=10
    )
    t = transition_matrix(base)
    seq = generate_markov_sequence(t, 200, seed=11)
    assert len(seq.states) == 200
    assert seq.states.min() >= 1 and seq.states.max() <= 2
