"""Project epoch correlation matrices into 3D and draw the state cloud.

Classical scaling turns the pairwise matrix-distance table into
coordinates; epochs from the same market state land near each other.
Writes an SVG scatter colored by state next to this script.
"""

from pathlib import Path

from marketstates.clustering import order_states, sigma_intra
from marketstates.corrmat import EpochSpec, pipeline_matrices
from marketstates.ingest import log_returns
from marketstates.mds import classical_mds, distance_matrix, embedding_svg
from marketstates.synth import RegimeSpec, generate_block_market

spec = RegimeSpec(
    sector_sizes=(5, 5, 5),
    intra=(0.1, 0.55, 0.95),
    inter=(0.02, 0.2, 0.45),
    durations=(150, 150, 150),
)
table, _ = generate_block_market(spec, seed=11)
returns = log_returns(table)
epochs = EpochSpec(length=20, shift=1)
mats = pipeline_matrices(returns, epochs, 0.0, None)

seq = order_states(sigma_intra(mats, 3, 20, 0).best, mats)
emb = classical_mds(distance_matrix(mats), 3)

print(f"{emb.n} epochs embedded in {emb.dim} dimensions")
print(f"captured fraction of positive eigenvalue mass: {emb.captured:.3f}")
for axis in (1, 2, 3):
    print(f"  axis {axis}: {emb.axis_fraction(axis):.1%}")

out = Path(__file__).with_name("embedding.svg")
out.write_text(embedding_svg(emb, seq), encoding="utf-8")
print(f"wrote {out}")
