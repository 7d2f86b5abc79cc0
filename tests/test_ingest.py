"""CSV ingest: numpy's C tokenizer reads what it can, and the exact
csv + float() parser reads everything it refuses.

The gate is differential: every input must load to the same bytes, or
fail with the same error type and message, as when the exact parser
reads it alone.
"""

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from ecdkit import InputError, load_distance_csv, load_feature_csv
from ecdkit.errors import SchemaError

metricspace = importlib.import_module("ecdkit.metricspace")

# inputs the fast reader takes
FAST = {
    "plain": b"0,1.5,2\n1.5,0,3.25\n2,3.25,0\n",
    "crlf": b"0,1.5\r\n1.5,0\r\n",
    "bare-cr": b"0,1.5\r1.5,0\r",
    "no-final-newline": b"0,1.5\n1.5,0",
    "blank-lines": b"\n0,1.5\n\n\r\n1.5,0\n\n",
    "spaces-and-tabs": b" 0 ,\t1.5\t\n1.5\t, 0 \n",
    "nbsp-and-vt-padding": "\xa00,1.5\x0b\n\x0b1.5,0\xa0\n".encode(),
    "sign-and-point-forms": b"+0,.5,1E+2\n.5,0,5.\n1E+2,5.,-0\n",
    "nan-and-inf": b"nan,inf\n-Infinity,NaN\n",
    "single-value": b"0\n",
    "single-row": b"1,2,3\n",
    "55-digit-decimal": b"0,1.234567890123456789012345678901234567890123456789012345\n"
                        b"1.234567890123456789012345678901234567890123456789012345,0\n",
}

# accepted inputs that only the exact parser reads
EXACT_ONLY = {
    "whitespace-only-line": b"0,1.5\n   \n\t\n1.5,0\n",
    "blank-fields-line": b"0,1.5\n , \n1.5,0\n",
    "quoted-fields": b'"0",1.5\n"1.5","0"\n',
    "underscore-digits": b"0,1_0\n1_0,0\n",
    "arabic-indic-digits": "٠,١\n١,٠\n".encode(),
}

REJECTED = {
    "hash-at-line-start": b"# note\n0,1\n1,0\n",
    "hash-mid-line": b"0,1 # note\n1,0\n",
    "trailing-comma": b"0,1,\n1,0,\n",
    "empty-field": b"0,,1\n1,0,1\n",
    "ragged": b"0,1\n1\n",
    "hex": b"0,0x1\n0x1,0\n",
    "fortran-exponent": b"0,1d2\n1d2,0\n",
    "semicolon-separator": b"0;1\n1;0\n",
    "stray-quote": b'0,1"\n1,0\n',
    "bom": "﻿0,1\n1,0\n".encode(),
    "empty-file": b"",
    "blank-only": b"\n\r\n\n",
    "header": b"a,b\n0,1\n1,0\n",
    "undecodable-byte": b"0,1\n1,\xff\n",
}

READERS = {
    "load_feature_csv": lambda p: load_feature_csv(p).points,
    "load_distance_csv": lambda p: load_distance_csv(p).values,
    "_read_csv": lambda p: metricspace._read_csv(p, header=False),
}


def outcome(reader, path):
    """Result bytes of one read, or its error type and message."""
    try:
        values = reader(path)
    except InputError as exc:
        return type(exc), str(exc)
    return values.dtype, values.shape, values.tobytes()


def read_both(reader, path):
    """(outcome with the fast reader first, whether it took the input,
    outcome of the exact parser alone)."""
    took = []
    real = metricspace._read_fast

    def spy(fh):
        got = real(fh)
        took.append(got is not None)
        return got

    with pytest.MonkeyPatch.context() as m:
        m.setattr(metricspace, "_read_fast", spy)
        fast = outcome(reader, path)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(metricspace, "_read_fast", lambda fh: None)
        exact = outcome(reader, path)
    return fast, took == [True], exact


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", [*FAST, *EXACT_ONLY, *REJECTED])
def test_fast_reader_matches_exact_parser(tmp_path, case, reader):
    path = tmp_path / "in.csv"
    path.write_bytes({**FAST, **EXACT_ONLY, **REJECTED}[case])
    fast, took, exact = read_both(READERS[reader], path)
    assert fast == exact
    assert took == (case in FAST)
    if reader == "_read_csv":
        assert isinstance(exact[0], np.dtype) == (case not in REJECTED)


_PAD = st.text(alphabet=" \t\xa0\x0b\x0c", max_size=2)


@settings(max_examples=60, deadline=None)
@given(
    values=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5))),
    fmt=st.sampled_from([repr, lambda v: "%.17g" % v, lambda v: "%.6e" % v]),
    newline=st.sampled_from(["\n", "\r\n"]),
    data=st.data(),
)
def test_fast_reader_is_bitwise_exact(tmp_path_factory, values, fmt, newline, data):
    lines = []
    for row in values.tolist():
        lines.extend([""] * data.draw(st.integers(0, 2)))
        lines.append(",".join(data.draw(_PAD) + fmt(v) + data.draw(_PAD) for v in row))
    path = tmp_path_factory.mktemp("prop") / "in.csv"
    path.write_bytes(newline.join(lines).encode())
    fast, took, exact = read_both(READERS["_read_csv"], path)
    assert took
    assert fast == exact


def test_ragged_rows_name_the_first_odd_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_bytes(b"x,y\n\n1,2\n3,4\n5\n6,7,8\n")
    with pytest.raises(SchemaError, match=(
        r"rows have inconsistent column counts: 1 on line 5, 2 on line 3"
    )):
        load_feature_csv(path)


def test_undecodable_byte_is_named_by_offset(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"0,1\n1,0\n" * 5000 + b"1,\xff\n")
    with pytest.raises(SchemaError, match=r"byte 0xff at offset 40002"):
        load_distance_csv(path)


def test_load_distance_csv_holds_no_python_floats(tmp_path):
    n = 600
    pts = np.random.default_rng(3).standard_normal((n, 5))
    upper = np.triu(cdist(pts, pts), k=1)
    path = tmp_path / "d.csv"
    np.savetxt(path, upper + upper.T, fmt="%.17g", delimiter=",")
    tracemalloc.start()
    try:
        d = load_distance_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * d.values.nbytes
