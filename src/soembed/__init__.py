"""Self-orthogonal embeddings and optimal distances for binary linear codes.

The package decides self-orthogonality from generator-matrix column
statistics, embeds any [n, k] code into a self-orthogonal code (provably
shortest for k <= 4), evaluates closed-form optimal-distance formulas for
k <= 5, and carries brute-force oracles that keep all of it honest.
"""

from .constructions import (
    SeedEntry,
    SeedRegistry,
    build_optimal,
    juxtapose_simplex,
)
from .distances import (
    DistanceValue,
    d_opt,
    dso_opt,
    griesmer_g,
    griesmer_upper,
    make_table,
)
from .embedding import (
    DEFAULT_POLICY,
    EmbedPolicy,
    EmbedReport,
    embed,
)
from .errors import (
    BadCharacterError,
    CapExceededError,
    DomainError,
    EmptyInputError,
    IndexOutOfRangeError,
    InvalidPolicyError,
    LengthMismatchError,
    MatrixParseError,
    MissingSeedError,
    NoSOCodeError,
    RaggedRowsError,
    RankDeficientError,
    SoEmbedError,
    WrongDimensionError,
    ZeroCodeError,
)
from .gf2 import (
    BinaryMatrix,
    gram,
    h_column,
    horizontal_join,
    min_distance,
    parse_matrix,
    rank,
    simplex_matrix,
    weight_distribution,
)
from .oracle import (
    Claims414,
    EnumerationResult,
    enumerate_codes_by_profile,
    min_embedding_oracle,
    random_so_search,
    verify_claims_prop414,
)
from .profiles import (
    ColumnProfile,
    column_profile,
    is_so_dim2,
    is_so_dim3,
    is_so_dim4,
    is_so_profile,
    matrix_from_profile,
)
from .tables import verify_sigma_symmetry

__version__ = "0.1.0"
