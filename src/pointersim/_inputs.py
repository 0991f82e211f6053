"""The one rule for numeric input, and the checks every module shares.

A number is an int or a float, or also a complex number where complex
values are asked for.  It is never a bool and never a string, and it is
finite.  numpy would parse a string as a number and read a bool as 0 or 1,
so ``read_numbers`` walks the input itself, in input order, before anything
is converted.  It returns the converted array, or the *culprit*: ``"a ragged
sequence"``, or the repr of the first entry it refuses.

A caller refuses through ``require_numbers``, with its own
``SimulationError`` subclass and requirement, in the form ``<field> must
be <requirement>, got <culprit>``.  A range rule, a negative time or a
frequency outside the support, is a mask over the read array, so it is
checked after the number rule and names its own first refused entry; shape
checks follow the read.  Five reads keep ``read_numbers``'s culprit
themselves, because a refusal there names the whole value rather than an
entry: ``build_grid``'s ``omega_max`` and ``avoid``, the values an
integrand returns, ``principal_value``'s singularity, and a CLI number,
where any list is refused by its repr.

An array a hot path already holds, a state's sector or an oracle product's
columns, is neither copied nor walked: ``check_dtype`` reads its dtype
kind alone and raises ``InvalidState`` for strings, bools, objects,
complex numbers where real ones are asked for, and a ragged sequence,
with the culprit ``read_numbers`` would name.  It does not check that
the entries are finite; ``GeneralizedState.validate`` does that.

An integer is an ``int`` or a numpy integer that is not a bool
(``is_integer``): bool is an int subclass, and numpy reads True as a mask.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidState, NegativeTime


def read_numbers(value, dtype=float) -> np.ndarray | str:
    """A fresh array of ``value`` as ``dtype``, or the culprit, a ``str``, that
    refuses it.

    ``value`` is a scalar, an array, or lists and tuples of them nested to
    any depth.  Complex entries count as numbers only when ``dtype`` is
    complex.
    """
    try:
        raw = np.asarray(value)
    except ValueError:  # numpy refuses a ragged sequence
        return "a ragged sequence"
    kinds = "iufc" if np.dtype(dtype).kind == "c" else "iuf"
    # a culprit is never empty, so it is truthy
    return _first_refused(value, kinds) or np.array(raw, dtype)


def _first_refused(value, kinds: str) -> str | None:
    """The repr of the first entry of ``value`` that is not a finite number of
    a dtype kind in ``kinds``, or None.

    Lists and tuples are walked entry by entry, so that a bool among numbers
    is found; a numeric array is checked whole, and any other is walked.
    """
    if not isinstance(value, (list, tuple)):
        raw = np.asarray(value)
        if raw.dtype.kind in kinds:
            bad = ~np.isfinite(raw)
            return repr(raw[bad][0].item()) if np.count_nonzero(bad) else None
        if raw.ndim == 0:
            return repr(value)
        value = raw.tolist()
    return next(filter(None, (_first_refused(entry, kinds) for entry in value)), None)


def is_integer(value) -> bool:
    """True for an ``int`` or a numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_numbers(value, error, requirement: str, dtype=float, refused=None) -> np.ndarray:
    """``value`` read through ``read_numbers`` as ``dtype``, or
    ``error(f"{requirement}, got {culprit}")``.

    The culprit is the one ``read_numbers`` names; else, given ``refused``, a
    map from the read array to a mask of the entries a range rule refuses,
    the repr of the first masked entry.
    """
    numbers = read_numbers(value, dtype)
    bad = isinstance(numbers, str) or refused is not None and refused(numbers)
    if np.count_nonzero(bad):
        culprit = numbers if isinstance(numbers, str) else repr(numbers[bad][0].item())
        raise error(f"{requirement}, got {culprit}")
    return numbers


def check_time(t) -> np.ndarray:
    """Evolution times ``t``, a real scalar or an array of any shape, as floats.

    Refuses with ``NegativeTime`` any time that is not a finite integer or
    float (a string is never parsed as a time), then any that is negative.
    """
    return require_numbers(t, NegativeTime, "evolution time must be real, finite and >= 0",
                           refused=lambda times: times < 0)


def check_amplitudes(values) -> np.ndarray:
    """A complex copy of ``values``, which must hold finite integers, floats
    and complex numbers only; anything else raises ``InvalidState``."""
    return require_numbers(values, InvalidState, "amplitudes must be finite numbers", complex)


def check_dtype(field: str, values, dtype) -> np.ndarray:
    """``values`` as an array, refused with ``InvalidState`` unless its dtype
    kind holds numbers of ``dtype``: complex ones only where ``dtype`` is.

    Only the dtype is read, so an array is neither copied nor walked: a
    string, a bool or an object is refused where numpy would parse it, count
    it or fail on it, a complex array where its imaginary part would be
    dropped, and a ragged sequence, which numpy cannot convert.
    """
    kinds, numbers = ("iufc", "real or complex") if np.dtype(dtype).kind == "c" else ("iuf", "real")
    try:
        values = np.asarray(values)
    except ValueError:  # numpy refuses a ragged sequence
        raise InvalidState(f"{field} must be {numbers} numbers, got a ragged sequence") from None
    if values.dtype.kind not in kinds:
        raise InvalidState(f"{field} must be {numbers} numbers, got an array of {values.dtype}")
    return values


def read_only(field: str, values, dtype) -> np.ndarray:
    """A read-only view of ``values`` as ``dtype``, through ``check_dtype``;
    no copy when the dtype matches."""
    view = np.asarray(check_dtype(field, values, dtype), dtype).view()
    view.flags.writeable = False
    return view
