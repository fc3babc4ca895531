"""Tools for the CHSH_q family of two-player games over finite fields."""

from .errors import InvalidInput, InvariantViolation, CapExceeded
from .field import Field, field_new, field_from_q

__all__ = [
    "InvalidInput",
    "InvariantViolation",
    "CapExceeded",
    "Field",
    "field_new",
    "field_from_q",
]

__version__ = "0.1.0"
