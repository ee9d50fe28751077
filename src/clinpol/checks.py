"""What a config value must be to count as an integer or a number, and which
keys a config object may set.

Every config reader (the simulator configs, the split, the state config,
the hyperparameter grid, the experiment config and its policy descriptors)
asks these, so a bool is never read as 1, a string or an infinity never
reaches a range check, and a misspelt key never leaves its setting at the
default unnoticed.
"""

import math
import numbers


def is_integer(value) -> bool:
    """An integral value; a bool is not an integer here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A real number with a finite float value; a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_keys(obj, known, error: type, lead: str) -> None:
    """Raise ``error("<lead> [keys]; valid keys are [...]")`` if ``obj`` sets a
    key outside ``known``."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise error(f"{lead} {unknown}; valid keys are {sorted(known)}")
