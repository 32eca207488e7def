"""Reduced-precision preconditioner storage (paper Sec. 2.2, Table 2).

The triangular solves run at the memory-bandwidth limit, so storing
the (already approximate) preconditioner factors in single precision
halves their traffic and nearly doubles the phase's speed — while all
*arithmetic* stays double precision, so the preconditioned operator is
essentially unchanged and the iteration count is unaffected.
"""

from __future__ import annotations

# lint: kernel (fp32 factor storage halves trisolve traffic; Table 2)

from enum import Enum

import numpy as np

__all__ = ["StoragePrecision", "storage_dtype", "traffic_ratio"]


class StoragePrecision(str, Enum):
    DOUBLE = "double"
    SINGLE = "single"


_DTYPES = {
    StoragePrecision.DOUBLE: np.float64,
    StoragePrecision.SINGLE: np.float32,
}


def storage_dtype(precision: StoragePrecision | str) -> np.dtype:
    return np.dtype(_DTYPES[StoragePrecision(precision)])


def traffic_ratio(precision: StoragePrecision | str) -> float:
    """Factor-value traffic relative to double-precision storage."""
    return storage_dtype(precision).itemsize / np.dtype(np.float64).itemsize
