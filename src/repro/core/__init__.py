"""Core of the LES3 reproduction: sets, similarity, TGM, search, updates."""

from repro.core.batch import batch_covered_counts, batch_knn_search, batch_range_search
from repro.core.columnar import ColumnarView, GroupVerifier, make_verifier
from repro.core.dataset import Dataset, DatasetStats
from repro.core.engine import LES3
from repro.core.htgm import HierarchicalTGM
from repro.core.join import (
    JoinResult,
    group_join_profiles,
    prefix_filter_join,
    similarity_self_join,
)
from repro.core.metrics import (
    QueryStats,
    knn_pruning_efficiency,
    range_pruning_efficiency,
)
from repro.core.persistence import PersistenceError, save_engine
from repro.core.search import SearchResult, knn_search, range_search
from repro.core.sets import SetRecord, distinct_overlap, overlap
from repro.core.similarity import (
    MEASURES,
    ContainmentSimilarity,
    CosineSimilarity,
    DiceSimilarity,
    JaccardSimilarity,
    OverlapCoefficient,
    Similarity,
    get_measure,
)
from repro.core.tgm import TokenGroupMatrix
from repro.core.tokens import TokenUniverse
from repro.core.updates import choose_group, insert_set
from repro.core.validation import ValidationReport, validate_tgm

__all__ = [
    "batch_covered_counts",
    "batch_knn_search",
    "batch_range_search",
    "ColumnarView",
    "GroupVerifier",
    "make_verifier",
    "Dataset",
    "DatasetStats",
    "LES3",
    "HierarchicalTGM",
    "JoinResult",
    "group_join_profiles",
    "prefix_filter_join",
    "similarity_self_join",
    "QueryStats",
    "knn_pruning_efficiency",
    "range_pruning_efficiency",
    "PersistenceError",
    "save_engine",
    "SearchResult",
    "knn_search",
    "range_search",
    "SetRecord",
    "distinct_overlap",
    "overlap",
    "MEASURES",
    "ContainmentSimilarity",
    "CosineSimilarity",
    "DiceSimilarity",
    "JaccardSimilarity",
    "OverlapCoefficient",
    "Similarity",
    "get_measure",
    "TokenGroupMatrix",
    "TokenUniverse",
    "choose_group",
    "insert_set",
    "ValidationReport",
    "validate_tgm",
]
