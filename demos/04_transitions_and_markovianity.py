"""Estimate a transition matrix and test whether a sequence is Markov.

A banded 4-state chain is sampled, its transition probabilities and
equilibrium recovered, and the one-step model checked against the
observed two-step behavior. The same check then rejects a sequence
with genuine second-order memory.
"""

import numpy as np

from marketstates.markov import (
    BootstrapPolicy,
    equilibrium_distribution,
    markovianity_check,
    transition_matrix,
    tridiagonality,
)
from marketstates.synth import generate_markov_sequence

true = np.array([
    [0.80, 0.20, 0.00, 0.00],
    [0.15, 0.70, 0.15, 0.00],
    [0.00, 0.20, 0.70, 0.10],
    [0.00, 0.00, 0.25, 0.75],
])
seq = generate_markov_sequence(true, 5000, seed=2)
t = transition_matrix(seq, k=4)

print("estimated transition probabilities (5000 steps):")
with np.printoptions(precision=3, suppress=True):
    print(t.probs)
print(f"largest error vs the true chain: {np.abs(t.probs - true).max():.4f}")
print(f"tridiagonality: {tridiagonality(t):.3f} "
      "(the true chain only moves between neighboring states)")

eq = equilibrium_distribution(t)
print("equilibrium:", " ".join(f"{p:.3f}" for p in eq.pi),
      f"(limit of the uniform start, {eq.steps} squarings of the chain)")

report = markovianity_check(seq, BootstrapPolicy(seed=0), k=4)
print(f"markovianity: statistic {report.statistic:.4f} vs "
      f"threshold {report.threshold:.4f} -> "
      f"{'consistent with first-order' if report.passed else 'rejected'}")

# a pattern that needs two steps of memory: 1,1,2 repeating
second_order = np.tile([1, 1, 2], 400)
report2 = markovianity_check(second_order, BootstrapPolicy(seed=0), k=2)
print(f"second-order pattern: statistic {report2.statistic:.4f} vs "
      f"threshold {report2.threshold:.4f} -> "
      f"{'consistent with first-order' if report2.passed else 'rejected'}")
