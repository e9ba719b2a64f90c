"""Exact CUR decompositions of low-rank matrices via randomized and deterministic selection.

The library covers: dense SVD-derived primitives (compact SVD, spectra, norms,
stable rank, generalized condition number), row/column sampling distributions
with their size bounds, construction and verification of
exact CUR decompositions, greedy deterministic index selection, and a
CUR-based solver for clustering data drawn from a union of independent
subspaces.  A seeded Monte Carlo harness (also exposed as the ``curlowrank``
command) turns the probabilistic guarantees into empirical success-rate
tables.
"""

from .cluster import (
    SubspaceSpec,
    clustering_matrix,
    labels_from_clustering_matrix,
    recovers_partition,
    same_partition,
    subspace_factors,
)
from .cur import (
    EXACTNESS_TOL,
    CharacterizationReport,
    CurFactors,
    approx_error,
    randomized_cur,
    verify_characterization,
)
from .deim import deim_cur, deim_select
from .errors import (
    CertificateError,
    ConfigError,
    DistributionError,
    DomainError,
    IndexOutOfRangeError,
    IndexSetError,
    MatrixInputError,
    RankDeficientError,
    SingularInterpolationError,
    ZeroMatrixError,
    ZeroProbabilityDrawError,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    config_from_mapping,
    emit_csv,
    lowrank_factors,
    lowrank_gaussian,
    run_experiment,
    spectral_noise,
    trial_generator,
    zero_out_columns,
)
from .linalg import (
    COLS,
    ROWS,
    IndexSet,
    SvdFactors,
    as_matrix,
    compact_svd,
    condition_number,
    factored_norms,
    factored_svd,
    frobenius_norm,
    spectral_norm,
    stable_rank,
)
from .mmio import read_matrix, write_matrix
from .sampling import (
    SCHEMES,
    ProbDist,
    axis_dists,
    draw_indices,
    draw_with_replacement,
    min_sample_size_rv,
    rescaled_submatrix,
    sample_size_length_via_lev,
    sample_size_leverage,
)

__version__ = "0.1.0"
