"""Analysis and simulation of purification-style quantum bit commitment.

The library computes exact degrees of concealment and bindingness for
purification bit-commitment protocols, constructs both parties' optimal
cheating strategies, reproduces the concealment/bindingness trade-off
curves, and builds and simulates the derived coin-tossing protocol.
"""

from .cointoss import (
    BiasReport,
    CoinTossProtocol,
    TossResult,
    TossStatistics,
    biases,
    fair_toss_protocol,
    simulate_toss,
    toss_statistics,
)
from .distinguish import (
    BlochVector,
    DistinguishabilityReport,
    HelstromMeasurement,
    InequalityCheck,
    InequalityReport,
    ParallelPurificationResult,
    bloch_fidelity_sq,
    bloch_to_density,
    bloch_trace_distance,
    check_inequalities,
    distinguishability_report,
    fidelity,
    helstrom,
    max_fidelity_sq_sum,
    max_parallel_overlap,
    qubit_bloch,
    trace_distance,
)
from .errors import (
    BadRank,
    BothCheat,
    DimMismatch,
    NotAMeasurement,
    NotHermitian,
    NotNormalized,
    NotOrthogonal,
    NotPositiveSemidefinite,
    NotQubit,
    ParamOutOfRange,
    QbcError,
)
from .linalg import (
    BipartiteState,
    DensityOperator,
    PureState,
    basis_state,
    bipartite,
    density_from_pure,
    partial_trace,
    projector,
    random_density,
    random_pure_state,
    sqrt_psd,
    tensor_product,
)
from .protocol import (
    AliceStrategy,
    BobStrategy,
    CheatKit,
    CheatSearchResult,
    CheatingAlice,
    HelstromBob,
    HonestAlice,
    HonestBob,
    Outcome,
    PurificationProtocol,
    RunRecord,
    SecurityReport,
    StatisticsReport,
    born_sample,
    estimate_statistics,
    exact_statistics,
    honest_reduced_states,
    make_protocol,
    optimal_cheat_kit,
    random_cheat_search,
    random_protocol,
    security_report,
    simulate_run,
)
from .specfile import (
    SpecFileError,
    parse_protocol_spec,
    protocol_to_spec,
    write_protocol_spec,
)
from .tradeoff import (
    Commuting3D,
    Curve,
    PurePair,
    QubitPureMixed,
    TradeoffPoint,
    check_bounds,
    curve_value,
    fair_point,
    family_protocol,
    sweep,
    uniform_grid,
)

__version__ = "0.1.0"
