"""Time-sliced occupancy of the microfluidic array.

A digital microfluidic biochip is an ``m x n`` array of identical
electrowetting cells sandwiched between two plates (paper Figure 1).
This package holds the row-major bitboards (:mod:`repro.grid.bitboard`)
that module seating, relocation off a faulty cell, the FTI and the
spare-cell count run on: one time slice of the array is one Python int.
A cell's health is one bit — healthy or faulty — so a chip's fault
state is simply the set of its dead cells.
"""
