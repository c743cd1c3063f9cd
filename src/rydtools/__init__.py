"""Numerical toolkit for Rydberg-atom quantum information estimates.

Modules cover single-atom structure (atoms), dipole-dipole pair
interactions (pair), excitation blockade (blockade), gate error budgets
(gates) and driven ensembles (ensemble).
"""

__version__ = "0.1.0"
