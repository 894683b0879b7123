"""Multiscale square functions, maximal operators, and function-space norms
on periodic grids, with an experiment harness for their norm equivalences."""

__version__ = "0.1.0"
