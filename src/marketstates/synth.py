"""Ground-truth generators: block-correlated markets with planted regimes
and sampled Markov state sequences.

The block market uses a factor construction (global factor, one factor
per sector, idiosyncratic noise) whose implied correlation matrix is
positive semidefinite by construction whenever the inter-sector level
does not exceed the intra-sector level and both lie in [0, 1). Returns
are generated directly and exponentiated into prices, so log_returns
inverts the generator exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .corrmat import check_epoch_length
from .errors import InvalidRegime, ValidationError
from .ingest import PriceTable, SectorMap
from .markov import StateSequence, equilibrium_distribution, sample_chain_block
from .rng import check_seed

START_DATE = date(2000, 1, 3)
START_PRICE = 100.0


@dataclass(frozen=True)
class RegimeSpec:
    """Planted market layout: sector sizes plus per-regime correlation
    levels and durations (in return days)."""

    sector_sizes: tuple[int, ...]
    intra: tuple[float, ...]
    inter: tuple[float, ...]
    durations: tuple[int, ...]
    noise_scale: float = 0.02
    epoch_length: int = 20

    def __post_init__(self):
        if not self.sector_sizes or any(s < 1 for s in self.sector_sizes):
            raise ValidationError("sector sizes must be positive")
        r = len(self.durations)
        if r == 0 or len(self.intra) != r or len(self.inter) != r:
            raise ValidationError(
                "intra, inter, and durations must have one entry per regime"
            )
        for a, b in zip(self.intra, self.inter):
            if not (0.0 <= a < 1.0 and 0.0 <= b < 1.0):
                raise InvalidRegime(
                    f"correlation levels must lie in [0, 1): intra={a}, inter={b}"
                )
            if b > a:
                # inter above intra breaks the factor decomposition (and PSD)
                raise InvalidRegime(
                    f"inter-sector level {b} exceeds intra-sector level {a}"
                )
        check_epoch_length(self.epoch_length)
        if any(d < self.epoch_length for d in self.durations):
            raise InvalidRegime(
                f"every regime duration must cover one epoch ({self.epoch_length} days)"
            )
        if not 0 < self.noise_scale < np.inf:
            raise ValidationError(
                f"noise scale must be finite and positive, got {self.noise_scale}"
            )

    @property
    def n_sectors(self) -> int:
        return len(self.sector_sizes)

    @property
    def n_stocks(self) -> int:
        return int(sum(self.sector_sizes))

    @property
    def n_regimes(self) -> int:
        return len(self.durations)

    def tickers(self) -> tuple[str, ...]:
        return tuple(
            f"S{s:02d}N{m:02d}"
            for s in range(self.n_sectors)
            for m in range(self.sector_sizes[s])
        )

    def sector_labels(self) -> tuple[str, ...]:
        return tuple(f"SEC{s:02d}" for s in range(self.n_sectors))

    def sector_map(self) -> SectorMap:
        labels = self.sector_labels()
        owners = [labels[s] for s, n in enumerate(self.sector_sizes) for _ in range(n)]
        return SectorMap(assignment=dict(zip(self.tickers(), owners)), sectors=labels)


def generate_block_market(
    spec: RegimeSpec, seed: int
) -> tuple[PriceTable, np.ndarray]:
    """Sample the planted market; returns prices plus a regime label per
    price day.

    Return day t belongs to the regime active between price days t and
    t+1; the label array marks price day t+1 with that regime and day 0
    with the first regime, so labels[1:] align exactly with return rows.
    A noise scale so large that a price leaves (0, inf) raises
    InvalidRegime.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    n = spec.n_stocks
    sector_of = np.repeat(np.arange(spec.n_sectors), spec.sector_sizes)

    chunks = []
    ret_labels = []
    for r in range(spec.n_regimes):
        a, b, d = spec.intra[r], spec.inter[r], spec.durations[r]
        g = rng.standard_normal((d, 1))
        f = rng.standard_normal((d, spec.n_sectors))
        e = rng.standard_normal((d, n))
        block = (
            np.sqrt(b) * g
            + np.sqrt(a - b) * f[:, sector_of]
            + np.sqrt(1.0 - a) * e
        )
        chunks.append(spec.noise_scale * block)
        ret_labels.append(np.full(d, r + 1, dtype=np.int64))
    returns = np.vstack(chunks)
    labels_ret = np.concatenate(ret_labels)

    t_days = returns.shape[0] + 1
    log_price = np.vstack([np.zeros((1, n)), np.cumsum(returns, axis=0)])
    with np.errstate(over="ignore"):
        prices = START_PRICE * np.exp(log_price)
    if not ((prices > 0) & (prices < np.inf)).all():
        raise InvalidRegime(
            f"noise scale {spec.noise_scale} drives prices out of (0, inf)"
        )
    dates = tuple(START_DATE + timedelta(days=i) for i in range(t_days))
    table = PriceTable(dates=dates, tickers=spec.tickers(), prices=prices)

    day_labels = np.empty(t_days, dtype=np.int64)
    day_labels[0] = labels_ret[0]
    day_labels[1:] = labels_ret
    return table, day_labels


def regime_truth_csv(table: PriceTable, day_labels: np.ndarray) -> str:
    if day_labels.shape[0] != table.n_days:
        raise ValidationError("one regime label per price day required")
    lines = ["date,regime"]
    for i, day in enumerate(table.dates):
        lines.append(f"{day.isoformat()},{int(day_labels[i])}")
    return "\n".join(lines) + "\n"


def generate_markov_sequence(probs, length: int, seed: int) -> StateSequence:
    """Sample a chain whose first state is drawn from the equilibrium
    distribution; deterministic given the seed. Accepts a TransitionMatrix
    or a plain row-stochastic array."""
    check_seed(seed)
    eq = equilibrium_distribution(probs)
    k = eq.pi.shape[0]

    rng = np.random.default_rng(seed)
    start = rng.choice(k, p=eq.pi) + 1
    states = sample_chain_block(probs, length, np.array([start]), rng)[0]
    return StateSequence(states=states, k=k)
