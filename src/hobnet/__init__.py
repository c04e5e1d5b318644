"""Dual-branch high-order classifier over hierarchical brain connectivity graphs.

Subpackages:
    autodiff      dense float64 reverse-mode differentiation engine
    connectivity  Pearson FC and multi-level RV-coefficient graph construction
    spectral      graph Laplacians, Chebyshev filtering, GCN propagation
    hgnn          graph branch: residual spectral encoders + high-order pooling
    hcnn          Euclidean branch: 1-D convolutions + outer-product pooling
    ffc           fusion head, loss, Adam, training loop, checkpoints
    population    phenotype-aware subject graph and transductive classifier
    harness       synthetic cohorts, splits, metrics, experiment drivers
    cli           command line entry points
"""

__version__ = "0.1.0"
