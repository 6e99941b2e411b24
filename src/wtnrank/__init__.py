"""Google matrix analysis of multiproduct trade networks.

Pipeline: ingest trade flows into money matrices, build the direct and
inverted Google matrices, compute PageRank/CheiRank and volume rankings,
derive trade balances and their shock sensitivities, and reduce the full
matrix onto selected actors.
"""

from .errors import (
    ConvergenceError,
    EmptyDataError,
    ParseError,
    ValidationError,
    WtnError,
)
from .google_matrix import (
    DEFAULT_DAMPING,
    DIRECT,
    INVERTED,
    GoogleMatrix,
    build_google,
    personalization_vector,
)
from .ranks import RankVector, assign_ranks, pagerank, rank_table
from .regomax import ReducedGoogleMatrix, reduce, strongest_links
from .sensitivity import (
    COUNTRY_PRODUCT,
    GLOBAL_PRODUCT,
    LABOR_COST,
    RANK_BASED,
    VOLUME_BASED,
    BalanceReport,
    LaborCostMatrix,
    Perturbation,
    SensitivityReport,
    balance,
    balance_report,
    balance_sensitivity,
    labor_cost_matrix,
)
from .synth import gravity_money_set
from .trade_data import (
    CountryRegistry,
    IngestResult,
    MoneyMatrixSet,
    ProductRegistry,
    VolumeProbabilities,
    ingest_csv,
    load_group_config,
    merge_country_group,
    volume_probabilities,
    write_trade_csv,
)

__version__ = "0.1.0"

KEU9_CONFIG = __path__[0] + "/data/keu9.json"
