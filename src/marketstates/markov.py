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
    damping: float = 0.0


@dataclass(frozen=True)
class StateSequence:
    """Epoch states relabeled 1..k by ascending mean average correlation."""

    states: np.ndarray
    k: int
    epoch_ends: tuple[date, ...] | None = None
    state_means: tuple[float, ...] | None = None

    def __len__(self) -> int:
        return int(self.states.shape[0])


def _state_array(seq, k: int | None) -> tuple[np.ndarray, int]:
    states = np.asarray(getattr(seq, "states", seq), dtype=np.int64)
    if states.ndim != 1:
        raise ValidationError("state sequence must be one-dimensional")
    if k is None:
        k = int(getattr(seq, "k", 0)) or (int(states.max()) if states.size else 0)
    if k < 1:
        raise ValidationError("state count must be >= 1")
    if states.size and (states.min() < 1 or states.max() > k):
        raise ValidationError(f"state labels must lie in 1..{k}")
    return states, k


def _normalize_rows(counts: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row-normalize; all-zero rows become uniform and are flagged."""
    k = counts.shape[0]
    row_sums = counts.sum(axis=1, dtype=np.float64)
    dangling = tuple(int(i) + 1 for i in np.flatnonzero(row_sums == 0))
    safe = np.where(row_sums == 0, 1.0, row_sums)
    probs = counts / safe[:, None]
    if dangling:
        probs[row_sums == 0] = 1.0 / k
    return probs, dangling


def _pair_counts(states: np.ndarray, k: int, lag: int) -> np.ndarray:
    src = states[:-lag] - 1
    dst = states[lag:] - 1
    flat = np.bincount(src * k + dst, minlength=k * k)
    return flat.reshape(k, k)


def transition_matrix(seq, k: int | None = None) -> TransitionMatrix:
    """Consecutive-pair transition counts (self-transitions included),
    row-normalized into probabilities."""
    states, k = _state_array(seq, k)
    if states.size < 2:
        raise InsufficientSequence("need at least 2 states to count transitions")
    counts = _pair_counts(states, k, lag=1)
    probs, dangling = _normalize_rows(counts)
    return TransitionMatrix(
        k=k,
        counts=counts,
        probs=probs,
        n_transitions=int(counts.sum()),
        dangling=dangling,
    )


MAX_SQUARINGS = 64


def check_damping(damping: float):
    """Damping mixes the chain with the uniform one and must lie in [0, 1)."""
    if not 0.0 <= damping < 1.0:
        raise ParameterRange(f"damping must be in [0, 1), got {damping}")


def equilibrium_distribution(t: TransitionMatrix, damping: float = 0.0) -> EquilibriumVector:
    """Limit of the uniform start, (1/k) 1 P^n for growing n, so reducible
    aperiodic chains keep their limit. P is squared, rows renormalized,
    until a product moves by less than 1e-13; ``steps`` counts squarings.

    An eigenvalue of modulus 1 other than 1 marks a periodic chain, which
    raises NonErgodic at once. The fix is a small damping (1e-3 biases pi
    by O(damping)), which mixes the chain with the uniform one:
    P' = (1-damping) P + damping / k.
    """
    check_damping(damping)
    p = t.probs
    if damping:
        p = (1.0 - damping) * p + damping / t.k
    lam = np.linalg.eigvals(p)
    if ((np.abs(np.abs(lam) - 1.0) < 1e-9) & (np.abs(lam - 1.0) >= 1e-9)).any():
        raise NonErgodic("the chain is periodic; retry with damping=1e-3")
    for step in range(1, MAX_SQUARINGS + 1):
        nxt = p @ p
        nxt /= nxt.sum(axis=1, keepdims=True)
        if np.abs(nxt - p).max() < 1e-13:
            pi = nxt.mean(axis=0)
            return EquilibriumVector(pi=pi / pi.sum(), steps=step, damping=damping)
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
    n_boot: int
    quantile: float
    seed: int
    note: str = MARKOVIANITY_NOTE


def two_step_matrix(seq, k: int | None = None) -> np.ndarray:
    """Empirical lag-2 transition probabilities; zero rows uniform."""
    states, k = _state_array(seq, k)
    if states.size < 3:
        raise InsufficientSequence("need at least 3 states for two-step pairs")
    probs, _ = _normalize_rows(_pair_counts(states, k, lag=2))
    return probs


def _two_step_tv(states: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row total-variation distance between the lag-2 matrix T2 and
    P^2, and the fitted one-step matrix P."""
    p = transition_matrix(states, k=k).probs
    t2 = two_step_matrix(states, k=k)
    return 0.5 * np.abs(t2 - p @ p).sum(axis=1), p


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
    k = probs.shape[0]
    cum = np.cumsum(probs, axis=1)
    n = starts.shape[0]
    out = np.empty((n, length), dtype=np.int64)
    out[:, 0] = starts
    u = rng.random((n, length - 1)) if length > 1 else np.empty((n, 0))
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

    row_tv, probs = _two_step_tv(states, k)
    statistic = float(row_tv.max())

    rng = np.random.default_rng(policy.seed)
    freq = np.bincount(states - 1, minlength=k) / states.size
    starts = rng.choice(k, size=policy.n_boot, p=freq) + 1
    block = sample_chain_block(probs, states.size, starts, rng)

    boot = np.array([_two_step_tv(chain, k)[0].max() for chain in block])
    threshold = float(np.quantile(boot, policy.quantile))

    return MarkovianityReport(
        statistic=statistic,
        threshold=threshold,
        passed=statistic <= threshold,
        row_tv=tuple(float(x) for x in row_tv),
        n_boot=policy.n_boot,
        quantile=policy.quantile,
        seed=policy.seed,
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
            "n_boot": report.n_boot,
            "quantile": report.quantile,
            "seed": report.seed,
            "note": report.note,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
