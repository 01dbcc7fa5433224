"""Time-sliced occupancy of the microfluidic array.

A digital microfluidic biochip is an ``m x n`` array of identical
electrowetting cells sandwiched between two plates (paper Figure 1).
This package holds the time-sliced occupancy grids used by the
placement and fault-tolerance layers, and the row-major bitboards
(:mod:`repro.grid.bitboard`) that module seating and the FTI run on. A cell's health is one bit —
healthy or faulty — so a chip's fault state is simply the set of its
dead cells.
"""

from repro.grid.occupancy import OccupancyGrid

__all__ = ["OccupancyGrid"]
