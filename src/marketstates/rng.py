"""Deterministic seed derivation and the seed contract.

A user seed is an integer ``seed >= 0`` (``check_seed``): numpy's
generators take no negative seed. k-means restart i runs from
``subseed(seed, i)``, a fixed function of the seed and the index, so the
restart set is reproducible and does not depend on the execution
schedule. Nothing else derives seeds: every (k, epsilon) grid cell
restarts from the same base seed, so cells differ only through their
data, and the Markovianity bootstrap, the synthetic market and the
sampled Markov chain each seed one numpy generator with the user seed
itself.

The derivation is the splitmix64 output stream: ``subseed(seed, i)`` is
the i-th value emitted by a splitmix64 generator whose state starts at
``seed``.
"""

from __future__ import annotations

from .errors import ParameterRange

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def check_seed(seed: int):
    """A seed must be >= 0, as numpy's generators require."""
    if seed < 0:
        raise ParameterRange(f"seed must be >= 0, got {seed}")


def _mix(x: int) -> int:
    # splitmix64 finalizer (Steele, Lea & Flood 2014)
    x = x & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def subseed(seed: int, index: int) -> int:
    """The ``index``-th 64-bit sub-seed in the stream rooted at ``seed``."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK)
