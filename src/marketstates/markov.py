"""Transition matrices over state sequences, their equilibria, and a
two-step consistency check standing in for the Markovianity criterion
that the source material only cites. Reports label it a necessary
condition, not a proof of Markovianity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple

import numpy as np

from .errors import InsufficientSequence, NonErgodic, ParameterRange, ValidationError
from .rng import check_seed

MARKOVIANITY_NOTE = "necessary condition, per external reference"


@dataclass(frozen=True)
class TransitionMatrix:
    k: int
    counts: np.ndarray
    probs: np.ndarray
    n_transitions: int
    dangling: tuple[int, ...] = ()  # 1-based states with no observed exits


@dataclass(frozen=True)
class EquilibriumVector:
    pi: np.ndarray
    steps: int


@dataclass(frozen=True)
class StateSequence:
    """Epoch states relabeled 1..k by ascending mean average correlation."""

    states: np.ndarray
    k: int
    epoch_ends: tuple[date, ...] | None = None
    state_means: tuple[float, ...] | None = None

    def __post_init__(self):
        # the renderers zip these with the states, so a short one drops rows
        if self.epoch_ends is not None and len(self.epoch_ends) != len(self):
            raise ValidationError(f"{len(self.epoch_ends)} epoch ends for {len(self)} states")
        if self.state_means is not None and len(self.state_means) != self.k:
            raise ValidationError(f"{len(self.state_means)} state means for k={self.k}")

    def __len__(self) -> int:
        return int(self.states.shape[0])


def _state_array(seq, k: int | None) -> tuple[np.ndarray, int]:
    states = np.asarray(getattr(seq, "states", seq))
    if states.ndim != 1:
        raise ValidationError("state sequence must be one-dimensional")
    if states.dtype.kind not in "biu":
        # the int64 cast would truncate a fraction and warn on NaN or inf
        values = np.asarray(states, dtype=np.float64)
        if not ((np.abs(values) < 2.0**63) & (np.trunc(values) == values)).all():
            raise ValidationError("state labels must be integers")
    states = states.astype(np.int64, copy=False)
    if k is None:
        k = int(getattr(seq, "k", 0)) or (int(states.max()) if states.size else 0)
    if k < 1:
        raise ValidationError("state count must be >= 1")
    if states.size and (states.min() < 1 or states.max() > k):
        raise ValidationError(f"state labels must lie in 1..{k}")
    return states, k


def _lag_counts(block: np.ndarray, k: int, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag pair counts of every chain in a (chains, length) block of 1-based
    states, from one bincount over chain-offset codes. Returns the counts
    (chains, k, k) and their row-normalized probabilities (an all-zero row
    becomes uniform)."""
    n = block.shape[0]
    codes = block[:, :-lag] * k
    codes += block[:, lag:]
    codes += (np.arange(n) * (k * k) - k - 1)[:, None]
    counts = np.bincount(codes.ravel(), minlength=n * k * k).reshape(n, k, k)
    row_sums = counts.sum(axis=2, dtype=np.float64)
    empty = row_sums == 0
    probs = counts / np.where(empty, 1.0, row_sums)[..., None]
    probs[empty] = 1.0 / k
    return counts, probs


def transition_matrix(seq, k: int | None = None) -> TransitionMatrix:
    """Consecutive-pair transition counts (self-transitions included),
    row-normalized into probabilities."""
    states, k = _state_array(seq, k)
    if states.size < 2:
        raise InsufficientSequence("need at least 2 states to count transitions")
    counts, probs = _lag_counts(states[None], k, lag=1)
    dangling = tuple(int(i) + 1 for i in np.flatnonzero(counts[0].sum(axis=1) == 0))
    return TransitionMatrix(k=k, counts=counts[0], probs=probs[0],
                            n_transitions=int(counts.sum()), dangling=dangling)


MAX_SQUARINGS = 64


def check_damping(damping: float):
    """Damping mixes the chain with the uniform one and must lie in [0, 1)."""
    if not 0.0 <= damping < 1.0:
        raise ParameterRange(f"damping must be in [0, 1), got {damping}")


def check_probs(probs) -> np.ndarray:
    """The row-stochastic array of a TransitionMatrix or a plain array;
    a nonsquare or empty one, a negative entry, or a row that does not
    sum to 1 (NaN included) raises ValidationError."""
    p = probs.probs if isinstance(probs, TransitionMatrix) else np.asarray(probs, float)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or not p.size:
        raise ValidationError("transition probabilities must be square, k >= 1")
    if (p < 0).any() or not (np.abs(p.sum(axis=1) - 1.0) <= 1e-9).all():
        raise ValidationError("transition matrix rows must sum to 1")
    return p


def equilibrium_distribution(t, damping: float = 0.0) -> EquilibriumVector:
    """Limit of the uniform start, (1/k) 1 P^n for growing n, so reducible
    aperiodic chains keep their limit. P is squared, rows renormalized,
    until a product moves by less than 1e-13; ``steps`` counts squarings.
    ``t`` is a TransitionMatrix or a row-stochastic array, read through
    :func:`check_probs`.

    An eigenvalue of modulus 1 other than 1 marks a periodic chain, which
    raises NonErgodic at once. The fix is a small damping (1e-3 biases pi
    by O(damping)), which mixes the chain with the uniform one:
    P' = (1-damping) P + damping / k.
    """
    check_damping(damping)
    p = check_probs(t)
    if damping:
        p = (1.0 - damping) * p + damping / p.shape[0]
    lam = np.linalg.eigvals(p)
    if ((np.abs(np.abs(lam) - 1.0) < 1e-9) & (np.abs(lam - 1.0) >= 1e-9)).any():
        raise NonErgodic("the chain is periodic; retry with damping=1e-3")
    for step in range(1, MAX_SQUARINGS + 1):
        nxt = p @ p
        nxt /= nxt.sum(axis=1, keepdims=True)
        if np.abs(nxt - p).max() < 1e-13:
            pi = nxt.mean(axis=0)
            return EquilibriumVector(pi=pi / pi.sum(), steps=step)
        p = nxt
    raise NonErgodic(
        f"P^(2^n) did not settle in {MAX_SQUARINGS} squarings; retry with damping=1e-3"
    )


def tridiagonality(t: TransitionMatrix) -> float:
    """Fraction of observed transitions with |i - j| <= 1."""
    if t.k < 2:
        raise ValidationError("tridiagonality needs k >= 2")
    if t.n_transitions == 0:
        raise ValidationError("no transitions observed")
    i, j = np.indices((t.k, t.k))
    band = np.abs(i - j) <= 1
    return float(t.counts[band].sum() / t.n_transitions)


class BootstrapPolicy(NamedTuple):
    n_boot: int = 200
    quantile: float = 0.95
    seed: int = 0


@dataclass(frozen=True)
class MarkovianityReport:
    statistic: float
    threshold: float
    passed: bool
    row_tv: tuple[float, ...]
    policy: BootstrapPolicy


def two_step_matrix(seq, k: int | None = None) -> np.ndarray:
    """Empirical lag-2 transition probabilities; zero rows uniform."""
    states, k = _state_array(seq, k)
    if states.size < 3:
        raise InsufficientSequence("need at least 3 states for two-step pairs")
    return _lag_counts(states[None], k, lag=2)[1][0]


def _two_step_tv(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row total-variation distance between the lag-2 matrix T2 and
    P^2 of every chain in the block, (chains, k), and the fitted one-step
    matrices P, (chains, k, k)."""
    p = _lag_counts(block, k, lag=1)[1]
    t2 = _lag_counts(block, k, lag=2)[1]
    return 0.5 * np.abs(t2 - p @ p).sum(axis=2), p


def sample_chain_block(
    probs: np.ndarray,
    length: int,
    starts: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample many chains of equal length in lockstep; one row per chain.

    States are 1-based. Vectorized over chains: each step inverts the
    per-row CDF for every chain at once, so cost scales with
    length x n_chains but the Python loop only with length.
    """
    cum = np.cumsum(check_probs(probs), axis=1)
    k = cum.shape[0]
    if length < 1:
        raise ParameterRange(f"length must be >= 1, got {length}")
    if starts.size and (starts.min() < 1 or starts.max() > k):
        raise ValidationError(f"start states must lie in 1..{k}")
    n = starts.shape[0]
    out = np.empty((n, length), dtype=np.int64)
    out[:, 0] = starts
    u = rng.random((n, length - 1))
    for step in range(1, length):
        rows = cum[out[:, step - 1] - 1]
        nxt = (u[:, step - 1, None] >= rows).sum(axis=1)
        out[:, step] = np.minimum(nxt, k - 1) + 1
    return out


def markovianity_check(
    seq,
    policy: BootstrapPolicy = BootstrapPolicy(),
    k: int | None = None,
) -> MarkovianityReport:
    """Two-step consistency test: compare the empirical lag-2 matrix with
    the square of the fitted one-step matrix.

    The statistic is the maximum per-row total-variation distance between
    T2 and P^2. Its null distribution is bootstrapped: n_boot sequences of
    equal length are sampled from the fitted chain (starts drawn from the
    empirical state frequencies), the same statistic is computed for each,
    and the threshold is the policy quantile of those values.
    """
    states, k = _state_array(seq, k)
    if states.size < 3:
        raise InsufficientSequence("need at least 3 states for the check")
    if not 0.0 < policy.quantile < 1.0:
        raise ParameterRange(f"quantile must be in (0, 1), got {policy.quantile}")
    if policy.n_boot < 1:
        raise ParameterRange(f"n_boot must be >= 1, got {policy.n_boot}")
    check_seed(policy.seed)

    row_tv, probs = _two_step_tv(states[None], k)
    statistic = float(row_tv.max())

    rng = np.random.default_rng(policy.seed)
    freq = np.bincount(states - 1, minlength=k) / states.size
    starts = rng.choice(k, size=policy.n_boot, p=freq) + 1
    block = sample_chain_block(probs[0], states.size, starts, rng)

    boot = _two_step_tv(block, k)[0].max(axis=1)
    threshold = float(np.quantile(boot, policy.quantile))

    return MarkovianityReport(
        statistic=statistic,
        threshold=threshold,
        passed=statistic <= threshold,
        row_tv=tuple(float(x) for x in row_tv[0]),
        policy=policy,
    )


def transitions_json(
    t: TransitionMatrix,
    equilibrium: EquilibriumVector,
    report: MarkovianityReport,
) -> str:
    """JSON artifact: counts, probs, equilibrium, tridiagonality, and the
    Markovianity verdict."""
    payload = {
        "k": t.k,
        "counts": t.counts.tolist(),
        "probs": t.probs.tolist(),
        "dangling_states": list(t.dangling),
        "n_transitions": t.n_transitions,
        "equilibrium": equilibrium.pi.tolist(),
        "tridiagonality": tridiagonality(t),
        "markovianity": {
            "statistic": report.statistic,
            "threshold": report.threshold,
            "pass": report.passed,
            "row_tv": list(report.row_tv),
            **report.policy._asdict(),
            "note": MARKOVIANITY_NOTE,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
