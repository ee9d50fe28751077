"""What a config value must be to count as an integer or a number.

Every config reader (the simulator configs, the split, the state config,
the hyperparameter grid, the experiment config and its policy descriptors)
asks these, so a bool is never read as 1 and a string or an infinity never
reaches a range check.
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
