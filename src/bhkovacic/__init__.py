"""Exact-arithmetic verification of the Liouvillian solutions of the
Schwarzschild perturbation master equation."""

__version__ = "0.1.0"

from .algebra import Poly, Rational, rat_from_str, rat_to_str
from .master import PerturbationKind, special_frequency

__all__ = [
    "__version__",
    "Poly",
    "Rational",
    "rat_from_str",
    "rat_to_str",
    "PerturbationKind",
    "special_frequency",
]
