"""The canonical writer: byte for byte the standard library's encoder, on plain data only."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from treelin.documents import canonical_bytes, series_from_doc, series_to_doc, write
from treelin.indices import slot_count
from treelin.series import ScalarSeries, VectorSeries


def stdlib_bytes(doc) -> bytes:
    """The canonical form as ``json.dumps`` writes it, the reference for the writer."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class Count(int):
    """An int subclass whose own repr both writers ignore."""

    def __repr__(self):
        return "Count()"


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(Count),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf, np.float64(-0.0)]),
    st.text(),
    st.sampled_from(['quote " backslash \\ slash /', "\x00\x1f\n\t\r\b\f\x7f",
                     "é ü ß €   \U0001d11e", ""]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(doc):
    assert canonical_bytes(doc) == stdlib_bytes(doc)


def _streamed(value):
    """``value`` with every list that is reached through objects alone given as an iterator."""
    if isinstance(value, dict):
        return {key: _streamed(item) for key, item in value.items()}
    return iter(value) if isinstance(value, list) else value


@settings(max_examples=100, deadline=None)
@given(VALUES)
def test_the_stream_writer_writes_the_canonical_bytes(doc):
    for form in (doc, _streamed(doc)):
        out = io.StringIO()
        write(form, out)
        assert out.getvalue().encode("ascii") == canonical_bytes(doc)


def test_writer_refuses_what_json_refuses_and_keys_other_than_str():
    for doc in ({"s": {1, 2}}, [np.int64(3)], {1: "json.dumps would write the key as '1'"}):
        for writes in (canonical_bytes, lambda doc: write(doc, io.StringIO())):
            with pytest.raises(TypeError):
                writes(doc)
    # only the stream writer takes an iterator
    with pytest.raises(TypeError):
        canonical_bytes({"terms": iter([])})
    # and only as the document or an object's value, not within a list or an iterator's item
    for doc in ([iter([])], iter([{"terms": iter([])}])):
        with pytest.raises(TypeError):
            write(doc, io.StringIO())


def _series_cases(n: int):
    """Vector series in n variables with the coefficients the writer treats apart."""
    D = 6
    rng = np.random.default_rng(n)
    v = rng.normal(size=(n, slot_count(n, D))) + 1j * rng.normal(size=(n, slot_count(n, D)))
    v[:, rng.random(v.shape[1]) < 0.3] = 0  # slots no term reports
    v[0, 1] = complex(-0.0, 1.5)
    v[0, 2] = complex(2.5, -0.0)
    v[-1, 3] = 3.0  # purely real
    v[-1, 4] = 0.25j  # purely imaginary
    v[:, 5] = complex(-0.0, -0.0)  # zero, so not a term
    v[:, 6] = 0
    v[0, 6] = 1e16 + 5e-324j
    rows_of_zeros = v.copy()
    rows_of_zeros[n // 2:] = 0
    non_finite = v.copy()
    non_finite[0, :3] = [complex(math.nan, 1.0), complex(math.inf, -math.inf), 1.0]
    return [VectorSeries.from_array(n, D, a) for a in (v, rows_of_zeros, non_finite)] + [
        VectorSeries.zero(n, 0), VectorSeries.zero(n, D)]


def _rows(s):
    """The coefficients of a scalar or vector series as one row per component."""
    return s.vector[np.newaxis] if isinstance(s, ScalarSeries) else s.to_array()


def _bits(a):
    """The bit patterns of a complex array's real and imaginary parts."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_are_written_as_their_documents(n):
    for vector in _series_cases(n):
        for s in [vector, *vector.components, ScalarSeries.zero(n, 3)]:
            doc = series_to_doc(s)
            # at depths 0, 1 and 4, beside other values
            for outer in (doc, {"h": doc, "z": None}, {"list": [1, {"inner": [doc]}]}):
                assert canonical_bytes(outer) == stdlib_bytes(outer)
            # the bytes read back give every term slot bit for bit, and zero elsewhere
            back = series_from_doc(json.loads(canonical_bytes(doc)))
            rows, read = _rows(s), _rows(back)
            assert type(back) is type(s) and read.shape == rows.shape
            used = rows.any(axis=0)
            assert np.array_equal(_bits(read[:, used]), _bits(rows[:, used]))
            assert not read[:, ~used].any()
            # the writer takes plain data only
            with pytest.raises(TypeError):
                canonical_bytes(s)
