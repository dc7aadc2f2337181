"""Accessible density matrices for N photons with hidden mode structure.

Builds permutation-symmetric N-photon states from creation-operator
expressions, traces out hidden spatio-temporal modes into block-diagonal
accessible density matrices, simulates waveplate / polarizing-beamsplitter
photon counting, and reconstructs the accessible state from count data.
"""

from .expressions import (
    CreationOperatorExpression,
    Definitions,
    ParseError,
    Term,
    parse_definition_line,
    parse_expression_file,
    parse_operator_expression,
)
from .measurement import (
    CountTable,
    WaveplateSetting,
    measurement_span_rank,
    outcome_probabilities,
    simulate_counts,
    waveplate_unitary,
)
from .schur import (
    N_MAX,
    accessible_param_count,
    occurring_two_j,
    partitions,
    schur_basis,
    sector_rotation,
    su2_multiplicity,
    symmetric_dimension,
    weyl_dimension,
)
from .states import AccessibleDensityMatrix, expression_to_accessible
from .tomography import (
    IndistinguishabilityReport,
    NumericalError,
    RankDeficiencyError,
    ReconstructionResult,
    fidelity,
    indistinguishability_report,
    linear_inversion,
    log_likelihood,
    mle_reconstruct,
)

__all__ = [
    "AccessibleDensityMatrix",
    "CountTable",
    "CreationOperatorExpression",
    "Definitions",
    "IndistinguishabilityReport",
    "N_MAX",
    "NumericalError",
    "ParseError",
    "RankDeficiencyError",
    "ReconstructionResult",
    "Term",
    "WaveplateSetting",
    "accessible_param_count",
    "expression_to_accessible",
    "fidelity",
    "indistinguishability_report",
    "linear_inversion",
    "log_likelihood",
    "measurement_span_rank",
    "mle_reconstruct",
    "occurring_two_j",
    "outcome_probabilities",
    "parse_definition_line",
    "parse_expression_file",
    "parse_operator_expression",
    "partitions",
    "schur_basis",
    "sector_rotation",
    "simulate_counts",
    "su2_multiplicity",
    "symmetric_dimension",
    "waveplate_unitary",
    "weyl_dimension",
]
