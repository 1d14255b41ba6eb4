"""Integer polynomial kernel over dense little-endian int lists.

The routines live in intpoly_py; this package re-exports them so callers
write ``kernel.gcd``.  ``BACKEND`` names the implementation ("pure") and is
stamped into benchmark records.
"""

from __future__ import annotations

from .intpoly_py import (
    bareiss_rank,
    content,
    exact_quotient,
    gcd,
    gcd_cofactors,
    mul,
    normalize,
    pivot_rows,
    primitive_part,
    pseudo_divmod,
)

BACKEND = "pure"
