"""Pinned reference values for regression checks.

``printed_value`` is the value as printed in the source table these numbers
were taken from.  For (p=7, a=6, b=6, c=3) on [2,2] the printed value 2
disagrees with both independent evaluation routes (exact integer expansion
gives -1080, and the closed form gives the same 5 mod 7), so the entry is
flagged with ``paper_discrepancy`` and the oracle value is authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GOLDEN_2D", "GoldenValue"]


@dataclass(frozen=True)
class GoldenValue:
    p: int
    a: int
    b: int
    c: int
    l1: int
    l2: int
    value: int  # oracle value mod p (authoritative)
    printed_value: int
    paper_discrepancy: bool
    integer_value: int | None = None  # exact coefficient over Z, when pinned
    note: str = ""


GOLDEN_2D = (
    GoldenValue(p=7, a=3, b=4, c=3, l1=1, l2=1, value=1, printed_value=1,
                paper_discrepancy=False, integer_value=-20),
    GoldenValue(p=7, a=6, b=6, c=3, l1=2, l2=2, value=5, printed_value=2,
                paper_discrepancy=True, integer_value=-1080,
                note="printed 2; exact expansion gives -1080 = 5 mod 7, matching the closed form"),
    GoldenValue(p=7, a=6, b=6, c=6, l1=2, l2=2, value=5, printed_value=5,
                paper_discrepancy=False, integer_value=9504),
)
