"""Angles on the pi/4 grid.

Every protocol-level angle (hiding phase, target rotation, measurement
instruction) lives on the eight-point grid {0, pi/4, ..., 7pi/4} and is
represented exactly by its integer number of eighth-turns.  Gate-level code
converts to radians only at the last moment, so grid arithmetic never
accumulates floating-point error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

@dataclass(frozen=True, order=True)
class Angle8:
    """An angle n * pi/4 with n in {0, ..., 7}; arithmetic is mod 8."""

    eighths: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "eighths", self.eighths % 8)

    @property
    def radians(self) -> float:
        return self.eighths * math.pi / 4.0

    def __add__(self, other: "Angle8") -> "Angle8":
        return Angle8(self.eighths + other.eighths)

    def __sub__(self, other: "Angle8") -> "Angle8":
        return Angle8(self.eighths - other.eighths)

    def __neg__(self) -> "Angle8":
        return Angle8(-self.eighths)

    def add_pi(self, times: int = 1) -> "Angle8":
        """Shift by pi (4 grid units) `times` times."""
        return Angle8(self.eighths + 4 * (times % 2))

    @property
    def is_clifford(self) -> bool:
        """True when the angle is an integer multiple of pi/2."""
        return self.eighths % 2 == 0

    def __repr__(self) -> str:
        return f"Angle8({self.eighths})"

