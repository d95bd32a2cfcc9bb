"""Erasure/error-correcting coding substrate: GF(256), Reed-Solomon, and ADD.

:mod:`repro.coding.gf256` / :mod:`repro.coding.reed_solomon` are the one
production codec (table-driven, row-wise ``bytes.translate`` operations,
stdlib only).  The original element-at-a-time codec is kept outside the
import path, in ``tests/reference_codec.py``, as the differential-testing
oracle.
"""

from . import gf256
from .add import AsynchronousDataDissemination
from .reed_solomon import DecodingError, Fragment, ReedSolomonCode

__all__ = [
    "gf256",
    "ReedSolomonCode",
    "Fragment",
    "DecodingError",
    "AsynchronousDataDissemination",
]
