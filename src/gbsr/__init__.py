"""Social recommendation with a learned denoiser on the social graph.

Learns which social edges to trust: per-edge confidences from a small MLP on
user embeddings reweight the social graph, an HSIC penalty keeps the denoised
representations from simply copying the raw graph, and a multi-layer
propagation backbone turns the result into top-N item rankings.
"""

from . import graph  # noqa: F401  (importing graph pins BLAS to one thread)

__version__ = "0.1.0"
