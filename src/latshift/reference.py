"""Built-in reference configurations and values for the comparison tables.

The tables command reproduces, by exhaustive enumeration, the bias and
standard deviation of both randomization schemes for six standard cells:
Korobov multipliers 17797, 1267 and 12915 at (s, m, r) = (3, 4, 4) and
(2, 5, 5).  The published reference values and their matching tolerances
ship here so that `latshift tables --check` needs no arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_RTOL = 1e-3

# published with fewer significant digits, so matched more loosely
LOW_PRECISION_RTOL = 5e-3


@dataclass(frozen=True)
class ReferenceCell:
    """One table cell: a configuration plus its expected statistics."""

    s: int
    m: int
    r: int
    ell: int
    bias_grid: float
    bias_scalar: float
    sd_grid: float
    sd_scalar: float
    rtol_sd_scalar: float = DEFAULT_RTOL

    def expectations(self) -> list[tuple[str, str, float, float]]:
        """(scheme, statistic, expected value, relative tolerance) rows."""
        return [
            ("grid-shift", "bias", self.bias_grid, DEFAULT_RTOL),
            ("grid-shift", "sd", self.sd_grid, DEFAULT_RTOL),
            ("scalar-shift", "bias", self.bias_scalar, DEFAULT_RTOL),
            ("scalar-shift", "sd", self.sd_scalar, self.rtol_sd_scalar),
        ]


REFERENCE_CELLS: tuple[ReferenceCell, ...] = (
    ReferenceCell(3, 4, 4, 17797, 1.9544e-3, 5.1619e-9, 7.938e-4, 8.389e-4),
    ReferenceCell(3, 4, 4, 1267, 1.9544e-3, 1.5158e-8, 7.938e-4, 8.374e-4),
    ReferenceCell(3, 4, 4, 12915, 1.9544e-3, 1.9155e-8, 7.938e-4, 8.378e-4),
    ReferenceCell(2, 5, 5, 17797, 3.2555e-4, 1.2940e-9, 1.6598e-4, 1.8194e-4),
    ReferenceCell(
        2, 5, 5, 1267, 3.2555e-4, 4.4993e-9, 1.6598e-4, 1.820e-4,
        rtol_sd_scalar=LOW_PRECISION_RTOL,
    ),
    # The scalar-shift SD was once listed here as 1.782e-4, the mantissa of
    # this cell's scalar-shift bias (1.7820e-9) written into the SD slot.
    # Exhaustive enumeration and exact rational arithmetic over all 2^15
    # extended nodes (cosets as columns) both give 1.8202272e-4, in line
    # with 1.8194e-4 and 1.820e-4 for the other two multipliers.
    ReferenceCell(
        2, 5, 5, 12915, 3.2555e-4, 1.7820e-9, 1.6598e-4, 1.8202e-4,
        rtol_sd_scalar=LOW_PRECISION_RTOL,
    ),
)
