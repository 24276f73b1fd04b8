"""Storage layer: the real binary columnar format and the simulated disk.

Two halves live here:

* :mod:`repro.storage.columnar_file` — the *real* out-of-core path: the
  binary columnar ``dataset.bin`` format
  (:class:`ColumnarFileWriter`/:class:`ColumnarFileReader`) and the
  ``np.memmap``-backed :class:`MappedColumnarView` behind
  ``repro.load(..., mode="mmap"|"lazy")``.
* :mod:`repro.storage.disk` / :mod:`repro.storage.layout` — the
  *simulated* disk cost model for the paper's Figure 13 evaluation.
"""

from repro.storage.columnar_file import (
    COLUMNAR_FORMAT_VERSION,
    COLUMNAR_MAGIC,
    ColumnarFileReader,
    ColumnarFileWriter,
    MappedColumnarView,
)
from repro.storage.disk import (
    HDD_5400RPM,
    SSD_SATA,
    DiskProfile,
    DiskStats,
    SimulatedDisk,
)
from repro.storage.layout import (
    DiskBruteForce,
    DiskDualTrans,
    DiskInvertedIndex,
    DiskLES3,
    record_bytes,
)

__all__ = [
    "COLUMNAR_FORMAT_VERSION",
    "COLUMNAR_MAGIC",
    "ColumnarFileReader",
    "ColumnarFileWriter",
    "MappedColumnarView",
    "HDD_5400RPM",
    "SSD_SATA",
    "DiskProfile",
    "DiskStats",
    "SimulatedDisk",
    "DiskBruteForce",
    "DiskDualTrans",
    "DiskInvertedIndex",
    "DiskLES3",
    "record_bytes",
]
