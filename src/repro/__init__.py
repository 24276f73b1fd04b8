"""LES3: Learning-based Exact Set Similarity Search — full reproduction.

Public API quickstart::

    from repro import Dataset, LES3

    dataset = Dataset.from_token_lists([["a", "b"], ["b", "c"], ["x", "y"]])
    engine = LES3.build(dataset, num_groups=2)
    print(engine.knn(["a", "b"], k=1).matches)

Saved indexes (single-engine or sharded) come back through one call::

    engine = repro.load("my-index", mode="mmap")

and ship as a long-lived query service with ``repro serve`` (see
:mod:`repro.serve` and ``docs/serving.md``).

See README.md for the architecture overview and DESIGN.md for the paper
mapping.
"""

from repro.api import QueryRequest, QueryResult, execute, execute_batch, load
from repro.core import (
    LES3,
    Dataset,
    DatasetStats,
    HierarchicalTGM,
    JaccardSimilarity,
    PersistenceError,
    SearchResult,
    SetRecord,
    Similarity,
    TokenGroupMatrix,
    TokenUniverse,
    get_measure,
    knn_search,
    range_search,
    save_engine,
)
from repro.distributed import ShardedLES3, save_sharded

__version__ = "1.4.0"

__all__ = [
    "load",
    "QueryRequest",
    "QueryResult",
    "execute",
    "execute_batch",
    "LES3",
    "Dataset",
    "DatasetStats",
    "HierarchicalTGM",
    "JaccardSimilarity",
    "PersistenceError",
    "SearchResult",
    "SetRecord",
    "ShardedLES3",
    "Similarity",
    "TokenGroupMatrix",
    "TokenUniverse",
    "get_measure",
    "knn_search",
    "range_search",
    "save_engine",
    "save_sharded",
    "__version__",
]
