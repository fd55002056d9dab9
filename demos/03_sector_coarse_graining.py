"""Compress a stock-level correlation matrix to sector blocks.

Coarse graining averages correlation entries over sector pairs; the
diagonal blocks skip self-correlations so a sector's own entry measures
cohesion between distinct members. The sector-level pipeline then
clusters the much smaller matrices and should find the same states:
scored in the stock-level space, its best partition should be about as
tight as the stock-level pipeline's own.
"""

import numpy as np

from marketstates.clustering import order_states, partition_d_intra, sigma_intra
from marketstates.corrmat import EpochSpec, coarse_grain, pipeline_stacks, rolling_correlations
from marketstates.ingest import log_returns
from marketstates.synth import RegimeSpec, generate_block_market

spec = RegimeSpec(
    sector_sizes=(8, 8, 8),
    intra=(0.2, 0.8),
    inter=(0.05, 0.15),
    durations=(150, 150),
)
table, _ = generate_block_market(spec, seed=11)
returns = log_returns(table)
sectors = spec.sector_map()
epochs = EpochSpec(length=20, shift=1)

# one long window covering the whole first regime, so the block
# averages are tight enough to read off the planted levels
calm = rolling_correlations(returns, EpochSpec(length=150, shift=150))[0]
g = coarse_grain(calm, sectors)
print(f"regime 1 window: {calm.dim}x{calm.dim} stock matrix -> "
      f"{g.dim}x{g.dim} sector matrix")
with np.printoptions(precision=3, suppress=True):
    print(g.full())
print("diagonal entries sit near the planted intra level 0.2, "
      "off-diagonal near the inter level 0.05\n")

# one pass over the epochs writes the stock-level and the sector-level
# row of each epoch from the same correlation matrix
stock_mats, sector_mats = pipeline_stacks(returns, epochs, [(0.0, False), (0.0, True)], sectors)
stock_best = sigma_intra(stock_mats, 2, 20, 0).best
sector_best = sigma_intra(sector_mats, 2, 20, 0).best
stock_states = order_states(stock_best, stock_mats)
sector_states = order_states(sector_best, sector_mats)

agree = float((stock_states.states == sector_states.states).mean())
print(f"stock-level vs sector-level state agreement: {agree:.1%} of epochs")

# both partitions scored in the same space: the stock-level one
print("d_intra of each pipeline's best partition, in stock-level space:")
for name, best in (("stock-level", stock_best), ("sector-level", sector_best)):
    print(f"  {name:<12} {partition_d_intra(stock_mats, best.assignments):.4f}")
