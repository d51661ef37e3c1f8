"""Exact solver and verification lab for two-team selection contests."""

from .model import (
    MAX_PLAYERS,
    BehavioralStrategy,
    BudgetExceeded,
    CoverageError,
    GameModelError,
    GameSpec,
    HistoryClassKey,
    PreconditionError,
    PureAdaptiveStrategy,
    RedundantPlayersError,
    ROOT_CLASS,
    StrengthMatrix,
    TerminalClassError,
    UtilityTable,
    ValidationError,
    format_rational,
    load_spec,
    loads_spec,
    make_spec,
    parse_rational,
    utility_ue,
    utility_um,
    validate_spec,
)
from .matrix import (
    MatrixGame,
    MatrixSolution,
    best_col_response_value,
    best_row_response_value,
    col_dominates,
    row_dominates,
    solve_matrix,
)
from .solver import (
    SolveResult,
    class_count,
    enumerate_pure_strategies,
    evaluate_fixed,
    matching_distribution,
    max_meeting_probability,
    meeting_probabilities,
    pure_meeting_grids,
    solve,
    stage_matrix,
    uniform_strategy,
)
from .analysis import (
    CheckReport,
    GammaParams,
    PlayerClassification,
    abandon,
    abandonment_delta,
    add_dominated,
    check_corollary1,
    check_lemma2,
    check_lemma5,
    check_lemma6,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    classify,
    gamma_game,
    top_block_uniform_strategy,
)
from .explorer import (
    GainRecord,
    SearchConfig,
    SweepSummary,
    generate_instance,
    max_gain,
    records_to_csv,
    sweep,
)
from .instances import card_game, named_instance
from .montecarlo import SimulationEstimate, simulate_competitions

__all__ = [name for name in dir() if not name.startswith("_")]
