import json
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from marketstates.errors import (
    InsufficientSequence,
    NonErgodic,
    ParameterRange,
    ValidationError,
)
from marketstates.markov import (
    MAX_SQUARINGS,
    BootstrapPolicy,
    EquilibriumVector,
    TransitionMatrix,
    equilibrium_distribution,
    markovianity_check,
    sample_chain_block,
    transition_matrix,
    transitions_json,
    tridiagonality,
    two_step_matrix,
)


def dense_equilibrium(p: np.ndarray) -> np.ndarray:
    """Stationary vector by direct linear solve of pi (P - I) = 0 with the
    normalization row appended."""
    k = p.shape[0]
    a = p.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def _tm(probs, counts=None) -> TransitionMatrix:
    probs = np.asarray(probs, dtype=float)
    k = probs.shape[0]
    counts = np.asarray(counts) if counts is not None else (probs * 10).astype(np.int64)
    return TransitionMatrix(
        k=k, counts=counts, probs=probs, n_transitions=int(counts.sum())
    )


def test_hand_counted_transitions():
    t = transition_matrix((1, 1, 2, 2, 1))
    np.testing.assert_array_equal(t.counts, [[1, 1], [1, 1]])
    np.testing.assert_array_equal(t.probs, [[0.5, 0.5], [0.5, 0.5]])
    assert t.n_transitions == 4
    assert t.k == 2
    assert t.dangling == ()


def test_alternating_sequence():
    t = transition_matrix((1, 2, 1, 2, 1))
    np.testing.assert_array_equal(t.counts, [[0, 2], [2, 0]])
    np.testing.assert_array_equal(t.probs, [[0.0, 1.0], [1.0, 0.0]])


def test_counts_total_is_length_minus_one():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 500))
        seq = rng.integers(1, 5, size=n)
        t = transition_matrix(seq, k=4)
        assert t.counts.sum() == n - 1
        np.testing.assert_allclose(t.probs.sum(axis=1), 1.0, atol=1e-12)


def test_dangling_state_row_is_uniform():
    t = transition_matrix((1, 1, 1), k=3)
    assert t.dangling == (2, 3)
    np.testing.assert_array_equal(t.counts[1], [0, 0, 0])
    np.testing.assert_allclose(t.probs[1], [1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(t.probs[2], [1 / 3, 1 / 3, 1 / 3])


def test_sequence_objects_supply_k():
    seq = SimpleNamespace(states=np.array([1, 2, 1, 1]), k=3)
    t = transition_matrix(seq)
    assert t.k == 3
    assert t.dangling == (3,)


def test_transition_errors():
    with pytest.raises(InsufficientSequence):
        transition_matrix((1,))
    with pytest.raises(ValidationError):
        transition_matrix((0, 1, 2), k=2)
    with pytest.raises(ValidationError):
        transition_matrix((1, 5), k=2)
    with pytest.raises(ValidationError):
        transition_matrix(np.array([[1, 2], [1, 2]]))


def test_equilibrium_two_state_known_value():
    t = _tm([[0.9, 0.1], [0.2, 0.8]])
    ev = equilibrium_distribution(t)
    np.testing.assert_allclose(ev.pi, [2 / 3, 1 / 3], atol=1e-10)
    assert ev.steps >= 1
    assert ev.damping == 0.0


def test_equilibrium_is_fixed_point_and_matches_dense_solve():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(2, 11))
        p = rng.random((k, k)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        ev = equilibrium_distribution(_tm(p))
        np.testing.assert_allclose(ev.pi @ p, ev.pi, atol=1e-10)
        np.testing.assert_allclose(ev.pi, dense_equilibrium(p), atol=1e-10)
        assert ev.pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_doubly_stochastic_is_uniform():
    p = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
    ev = equilibrium_distribution(_tm(p))
    np.testing.assert_allclose(ev.pi, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_periodic_chain_raises_and_damping_fixes():
    p = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    t = _tm(p)
    with pytest.raises(NonErgodic):
        equilibrium_distribution(t)
    ev = equilibrium_distribution(t, damping=1e-3)
    np.testing.assert_allclose(ev.pi, [0.25, 0.5, 0.25], atol=1e-3)
    assert ev.damping == 1e-3


def _positive_chain(k: int):
    return arrays(np.float64, (k, k), elements=st.floats(0.01, 1.0)).map(
        lambda a: a / a.sum(axis=1, keepdims=True)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10).flatmap(_positive_chain))
def test_equilibrium_of_positive_chain_is_exact_fixed_point(p):
    ev = equilibrium_distribution(_tm(p))
    np.testing.assert_allclose(ev.pi @ p, ev.pi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ev.pi, dense_equilibrium(p), rtol=0, atol=1e-12)
    assert 1 <= ev.steps <= MAX_SQUARINGS


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.permutations(range(d))))
@example([0, 1])  # [[0, 1], [1, 0]]
def test_cyclic_permutation_chain_raises_at_once(order):
    """Every state moves to the next one in a d-cycle: period d. The
    uniform start is stationary here, so only the spectrum shows it."""
    d = len(order)
    p = np.zeros((d, d))
    p[order, np.roll(order, -1)] = 1.0
    t0 = time.perf_counter()
    with pytest.raises(NonErgodic, match="damping=1e-3"):
        equilibrium_distribution(_tm(p))
    assert time.perf_counter() - t0 < 0.1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4).flatmap(_positive_chain), min_size=2, max_size=3))
def test_block_diagonal_chain_weights_blocks_by_size(blocks):
    """A reducible chain of closed positive blocks keeps its uniform-start
    limit: block b carries weight |b|/k, spread as its own pi_b."""
    sizes = [b.shape[0] for b in blocks]
    k = sum(sizes)
    p = np.zeros((k, k))
    want = np.zeros(k)
    lo = 0
    for b, size in zip(blocks, sizes):
        p[lo:lo + size, lo:lo + size] = b
        want[lo:lo + size] = size / k * dense_equilibrium(b)
        lo += size
    ev = equilibrium_distribution(_tm(p))
    np.testing.assert_allclose(ev.pi, want, rtol=0, atol=1e-12)


def test_sticky_chains_match_dense_solve():
    """Self-transitions near 0.99 put the second eigenvalue near 1, where
    a step-by-step iteration stops early; squaring reaches the limit."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(300):
        k = int(rng.integers(2, 11))
        off = rng.random((k, k))
        np.fill_diagonal(off, 0.0)
        p = 0.01 * off / off.sum(axis=1, keepdims=True) + 0.99 * np.eye(k)
        ev = equilibrium_distribution(_tm(p))
        worst = max(worst, np.abs(ev.pi - dense_equilibrium(p)).max())
    assert worst <= 1e-12


def test_equilibrium_damping_range():
    t = _tm([[0.9, 0.1], [0.2, 0.8]])
    for bad in (-0.1, 1.0):
        with pytest.raises(ParameterRange):
            equilibrium_distribution(t, damping=bad)


def test_tridiagonality_uniform_counts():
    t = _tm(np.full((5, 5), 0.2), counts=np.ones((5, 5), dtype=np.int64))
    assert tridiagonality(t) == pytest.approx(13 / 25)


def test_tridiagonality_banded_chain_is_one():
    t = transition_matrix((1, 2, 3, 2, 1, 1, 2, 2, 3))
    assert tridiagonality(t) == 1.0


def test_tridiagonality_count_scale_invariance():
    counts = np.array([[4, 1, 3], [2, 0, 2], [5, 1, 1]])
    a = _tm(counts / counts.sum(axis=1, keepdims=True), counts=counts)
    b = _tm(counts / counts.sum(axis=1, keepdims=True), counts=counts * 7)
    assert tridiagonality(a) == pytest.approx(tridiagonality(b), abs=1e-15)


def test_tridiagonality_errors():
    with pytest.raises(ValidationError):
        tridiagonality(_tm([[1.0]], counts=np.array([[3]])))
    empty = TransitionMatrix(
        k=2, counts=np.zeros((2, 2), dtype=np.int64),
        probs=np.full((2, 2), 0.5), n_transitions=0,
    )
    with pytest.raises(ValidationError):
        tridiagonality(empty)


def test_two_step_matrix_hand_value():
    t2 = two_step_matrix((1, 1, 2, 2, 1))
    np.testing.assert_array_equal(t2, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InsufficientSequence):
        two_step_matrix((1, 2))


def test_second_order_sequence_fails_markovianity():
    seq = np.tile([1, 1, 2], 300)
    report = markovianity_check(seq)
    assert not report.passed
    # fitted P = [[.5,.5],[1,0]], so P^2 row 2 is (.5,.5) while the true
    # lag-2 behavior from state 2 always returns to 1: TV = 0.5
    assert report.statistic == pytest.approx(0.5, abs=0.01)
    assert report.statistic > report.threshold


def test_iid_sequence_passes_markovianity():
    rng = np.random.default_rng(2)
    seq = rng.integers(1, 4, size=3000)
    report = markovianity_check(seq, k=3)
    assert report.passed


def test_markov_chain_passes_markovianity():
    p = np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])
    rng = np.random.default_rng(3)
    seq = sample_chain_block(p, 4000, np.array([1]), rng)[0]
    report = markovianity_check(seq, k=3)
    assert report.passed


def test_markovianity_deterministic_given_seed():
    rng = np.random.default_rng(4)
    seq = rng.integers(1, 3, size=500)
    a = markovianity_check(seq, BootstrapPolicy(n_boot=50, seed=9))
    b = markovianity_check(seq, BootstrapPolicy(n_boot=50, seed=9))
    assert a.statistic == b.statistic
    assert a.threshold == b.threshold
    assert a.row_tv == b.row_tv


def test_markovianity_policy_validation():
    seq = (1, 2, 1, 2, 1)
    with pytest.raises(ParameterRange):
        markovianity_check(seq, BootstrapPolicy(quantile=1.0))
    with pytest.raises(ParameterRange):
        markovianity_check(seq, BootstrapPolicy(n_boot=0))
    with pytest.raises(ParameterRange, match="seed must be >= 0"):
        markovianity_check(seq, BootstrapPolicy(seed=-1))
    with pytest.raises(InsufficientSequence):
        markovianity_check((1, 2))


def test_sample_chain_block_shapes_and_determinism():
    p = np.array([[0.7, 0.3], [0.4, 0.6]])
    starts = np.array([1, 2, 1])
    a = sample_chain_block(p, 50, starts, np.random.default_rng(5))
    b = sample_chain_block(p, 50, starts, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (3, 50)
    assert a.min() >= 1 and a.max() <= 2
    np.testing.assert_array_equal(a[:, 0], starts)


def test_sample_chain_block_absorbing_identity():
    p = np.eye(2)
    out = sample_chain_block(p, 20, np.array([1, 2]), np.random.default_rng(6))
    assert (out[0] == 1).all()
    assert (out[1] == 2).all()


def test_sample_chain_frequencies_match_equilibrium():
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    rng = np.random.default_rng(7)
    seq = sample_chain_block(p, 100_000, np.array([1]), rng)[0]
    freq = np.bincount(seq - 1, minlength=2) / seq.size
    np.testing.assert_allclose(freq, [2 / 3, 1 / 3], atol=0.01)


def test_transitions_json_payload():
    rng = np.random.default_rng(8)
    seq = rng.integers(1, 4, size=2000)
    t = transition_matrix(seq, k=3)
    ev = equilibrium_distribution(t)
    report = markovianity_check(seq, BootstrapPolicy(n_boot=30, seed=1), k=3)
    payload = json.loads(transitions_json(t, ev, report))
    assert payload["k"] == 3
    np.testing.assert_array_equal(payload["counts"], t.counts)
    np.testing.assert_allclose(payload["probs"], t.probs)
    np.testing.assert_allclose(payload["equilibrium"], ev.pi)
    assert payload["tridiagonality"] == pytest.approx(tridiagonality(t))
    mk = payload["markovianity"]
    assert mk["pass"] == report.passed
    assert mk["statistic"] == report.statistic
    assert mk["threshold"] == report.threshold
    assert mk["note"]
