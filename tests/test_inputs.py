"""The numeric-input rule: every reader of numbers accepts exactly the finite
ints and floats, and a refusal names an entry the caller actually passed."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointersim._inputs import is_integer, read_numbers

# every kind of JSON-like leaf: unbounded ints, floats with NaN and inf,
# bools, None and strings, which numpy would parse
_LEAVES = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=3))
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple),
    max_leaves=12)


def _leaves(value):
    if isinstance(value, (list, tuple)):
        for entry in value:
            yield from _leaves(entry)
    else:
        yield value


@settings(derandomize=True, deadline=None, max_examples=500, database=None)
@given(value=_VALUES)
def test_reader_returns_the_array_or_names_an_entry_of_the_input(value):
    read = read_numbers(value)
    if isinstance(read, str):
        assert read == "a ragged sequence" or read in {repr(leaf) for leaf in _leaves(value)}
    else:
        assert np.array_equal(read, np.asarray(value, float))
        assert all(type(leaf) in (int, float) and np.isfinite(leaf) for leaf in _leaves(value))


# lists of times, amplitudes and config values are covered where they are read
@pytest.mark.parametrize("value, culprit", [
    ([np.nan, True], "nan"),
    (np.array([[1.0, 2.0], [np.inf, np.nan]]), "inf"),
    (np.array([1.0, None], dtype=object), "None"),
    ([1.0, 1j], "1j"),
    (2 ** 70, repr(2 ** 70)),
], ids=["first-in-order", "array", "object-array", "complex", "huge-integer"])
def test_refusal_names_the_first_refused_entry(value, culprit):
    assert read_numbers(value) == culprit


def test_complex_entries_count_only_for_a_complex_reader():
    assert read_numbers([1, 1j], complex).tolist() == [1, 1j]
    assert read_numbers([1, complex(np.nan, 0.0)], complex) == "(nan+0j)"


def test_accepted_input_is_a_fresh_array():
    values = np.array([1.0, 2.0])
    read = read_numbers(values)
    read[0] = 5.0
    assert values[0] == 1.0


@pytest.mark.parametrize("value, expected", [
    (3, True), (np.int64(3), True), (np.uint8(3), True),
    (True, False), (np.bool_(True), False), (3.0, False), ("3", False), (None, False),
])
def test_integer_rule(value, expected):
    assert is_integer(value) is expected
