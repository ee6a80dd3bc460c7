"""Default orders and the domain of every argument of the package.

This module imports no numpy, so ``radius`` and ``table``, which check
their arguments here and run on Python floats, start without it.  A numpy
bool or integer is told apart without numpy: ``numbers.Integral`` holds
Python and numpy integers but not numpy's bool, and a numpy bool can only
exist once numpy is loaded.
"""

import math
import numbers
import sys

DEFAULT_ORDER = 2000
DEFAULT_COMPOSE_ORDER = 200


def _is_bool(value) -> bool:
    """A Python or numpy bool: it passes numeric range tests, but is no count or parameter."""
    if isinstance(value, bool):
        return True
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.bool_)


def _is_integer(value) -> bool:
    """A Python or numpy integer; bool is an int subclass but counts nothing."""
    # a plain int first: the ABC check costs about 0.3 us more a call
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _check_count(name: str, value, minimum: int) -> None:
    """Refuse a count that is not an integer, such as 2.0 or True, or is below ``minimum``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


# (argument, test, message): the domain of every real-valued argument of the
# package, checked in this order.  Each test is written so that NaN, which
# fails every comparison, fails it.  A bool would pass most of them, so it
# breaks an argument's first row, as counts refuse it.  "map k" is a catalog
# map's k, where k = 0 is the analytic map; "reach r" is boundary_reach's r and
# image-curve's --r.
_PARAM_RULES = (
    ("K", lambda K: K >= 1.0, "K must be >= 1"),
    ("K", math.isfinite, "K must be finite"),
    ("k", lambda k: 0.0 < k <= 1.0, "k must lie in (0, 1]"),
    ("map k", lambda k: 0.0 <= k <= 1.0, "k must lie in [0, 1]"),
    ("n", lambda n: _is_integer(n) and n >= 1, "n must be an integer >= 1"),
    ("a", lambda a: -1.0 < a < 1.0, "a must lie in (-1, 1)"),
    ("theta", math.isfinite, "theta must be finite"),
    ("c", lambda c: abs(complex(c)) <= 1.0, "|c| must be <= 1"),
    ("r", lambda r: 0.0 <= r < 1.0, "r must lie in [0, 1)"),
    ("radius", lambda r: 0.0 <= r < 1.0, "radius must lie in [0, 1)"),
    ("reach r", lambda r: 0.0 < r < 1.0, "r must lie in (0, 1)"),
    ("tol", lambda tol: tol > 0.0, "tol must be positive"),
    ("tol", math.isfinite, "tol must be finite"),
    ("bound", lambda b: 0.0 < b < math.inf, "bound must be positive and finite"),
    ("margin", lambda m: m > 0.0, "margin must be positive"),
    ("epsilon", lambda e: e > 0.0, "epsilon must be positive"),
    ("tail_constant", lambda C: C >= 0.0, "tail_constant must be >= 0"),
    ("tail_constant", math.isfinite, "tail_constant must be finite"),
    ("perturb", math.isfinite, "perturb must be finite"),
)


# Each argument's (test, message) rows in table order, so that a check reads
# only its own rows; an argument the table does not name is a KeyError.
_PARAM_INDEX = {
    name: tuple((test, message) for param, test, message in _PARAM_RULES if param == name)
    for name, _, _ in _PARAM_RULES
}


def _check_param(name: str, value) -> None:
    """Raise the message of the first rule on ``name`` that value breaks; a bool breaks all."""
    rows = _PARAM_INDEX[name]
    if _is_bool(value):
        raise ValueError(rows[0][1])
    for test, message in rows:
        if not test(value):
            raise ValueError(message)
