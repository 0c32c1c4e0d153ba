"""Long-term teach-and-repeat navigation: maps, registration, strategies.

A robot taught a path once keeps localizing against it for months while the
environment changes. This package provides the binary-descriptor map types,
histogram-voting registration, the temporal (spectral) feature model, eight
map-update strategies, a synthetic changing world to exercise them, and an
evaluation harness with paired significance tests.
"""

from .errors import (ConfigError, DatasetError, LongNavError, NoConsensusError,
                     TeachError)
from .features import (Descriptor, Feature, LocalMap, MapAlternative, PathMap,
                       hamming_distance, local_map_at)
from .fremen import DEFAULT_PERIODS, FremenModel, predict_many
from .registration import (MatchOutcome, MatchPair, RegistrationParams,
                           RegistrationResult, classify_outcomes,
                           histogram_vote, match_features, register)
from .strategies import (STRATEGY_KINDS, StrategyConfig, correct_positions,
                         rank_addition_candidates, score_update,
                         select_best_alternative, update_map)
from .simulator import (Frame, TraversalLog, World, WorldConfig,
                        generate_frames, generate_world, replay_frames,
                        run_closed_loop, teach, teach_from_frames, traverse,
                        uniform_offset_schedule)
from .evaluation import (ComparisonReport, ErrorSequence, TTestResult,
                         build_report, compare_strategies, error_cdf,
                         paired_t_test, registration_errors, write_report)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LongNavError", "ConfigError", "NoConsensusError", "TeachError",
    "DatasetError",
    "Descriptor", "Feature", "LocalMap", "MapAlternative", "PathMap",
    "hamming_distance", "local_map_at",
    "MatchOutcome", "MatchPair", "RegistrationParams", "RegistrationResult",
    "match_features", "histogram_vote", "classify_outcomes", "register",
    "FremenModel", "DEFAULT_PERIODS", "predict_many",
    "STRATEGY_KINDS", "StrategyConfig", "score_update",
    "rank_addition_candidates", "correct_positions",
    "update_map", "select_best_alternative",
    "WorldConfig", "World", "Frame", "TraversalLog",
    "generate_world", "teach", "teach_from_frames", "traverse",
    "run_closed_loop", "generate_frames", "replay_frames",
    "uniform_offset_schedule",
    "ErrorSequence", "TTestResult", "ComparisonReport", "registration_errors",
    "error_cdf", "paired_t_test", "compare_strategies", "build_report",
    "write_report",
]
