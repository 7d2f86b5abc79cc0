"""CSV ingest: numpy's C tokenizer reads what it can, and the exact
csv + float() parser reads everything it refuses.

The gate is differential: every input must load to the same bytes, or
fail with the same error type and message, as when the exact parser
reads it alone.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from ecdkit import (
    DEFAULT_ROUNDS,
    AsymmetryError,
    DistanceMatrix,
    InputError,
    NegativeDistanceError,
    NonSquareError,
    NonzeroDiagonalError,
    NumericError,
    PooledLabels,
    SizeMismatch,
    ecd_from_distances,
    ecd_subsampled_from_distances,
    load_distance_csv,
    load_feature_csv,
    measures_from_cross,
)
from ecdkit.cli import main
from ecdkit.errors import SchemaError
from ecdkit.experiments import CSV_HEADER, ExperimentTable

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
    "bom": "﻿0,1\n1,0\n".encode(),
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


#: a quoted field beyond the csv module's 131072-character limit
_OVERSIZED = b"\"" + b"1" * 200_000 + b"\",4\n"


@pytest.mark.parametrize("kind", ["features", "distances", "table"])
def test_oversized_field_is_a_schema_error(tmp_path, kind, capsys):
    # line 1 is a valid record of its kind, line 2 the oversized one
    path = tmp_path / "big.csv"
    first = ",".join(CSV_HEADER).encode() if kind == "table" else b"1,2"
    path.write_bytes(first + b"\n" + _OVERSIZED)
    load = {"features": load_feature_csv, "distances": load_distance_csv,
            "table": ExperimentTable.from_csv}[kind]
    with pytest.raises(SchemaError, match=rf"^{path}: line 2: field larger than field limit"):
        load(path)
    args = {"features": ["measures", "--set-a", str(path), "--set-b", str(path)],
            "distances": ["ecd", "--distances", str(path), "--split", "1"],
            "table": ["plot", "--table", str(path), "--out", str(tmp_path / "x")]}[kind]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 2: ") and err.count("\n") == 1


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
    # the parsed matrix is repaired in place, one pair of 256-row blocks at
    # a time: measured 1.41 matrices (2.02 with a full scratch matrix)
    assert peak < 1.5 * d.values.nbytes


# --- the input contract as a property over generated CSV bytes --------------

_NUMBERS = st.one_of(
    st.floats(-1e9, 1e9).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "+0", "0.0", "-0.0", "5e-324", "1_0", ".5", "5.", "1E+2",
                     "\u0663"]),
)
_FIELDS = st.one_of(
    st.builds(lambda pad, number: pad[0] + number + pad[1], st.tuples(_PAD, _PAD), _NUMBERS),
    _NUMBERS.map('"{}"'.format),
)
#: valid, but a covariance of them overflows, so one file in eight has one
_HUGE = st.sampled_from(["1e300", "-1e300", "1.7976931348623157e308"])
_BLANKS = st.sampled_from(["", " ", "\t", " , ", "\xa0"])
#: at most one per file, each of which the contract rejects
_DEFECTS = {
    "one-field-header": st.sampled_from(["x", "l", '"name"']),
    "mixed-first-row": st.sampled_from(["x,1", "l,2", "0x1p3,2", "1;2"]),
    "bad-field": st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", "1d2", "0x1", '1"', ""]),
    "ragged": st.sampled_from([1, -1]),
    "undecodable": st.sampled_from([b"\xff", b"\xc3", b"\x80"]),
    "no-rows": st.just(None),
}


@st.composite
def csv_files(draw):
    """The bytes of two small feature files of one width."""
    width = draw(st.integers(1, 3))
    return draw(csv_file(width)), draw(csv_file(width))


@st.composite
def csv_file(draw, width):
    """The bytes of one small feature file: numbers in several spellings,
    blank lines, one line end throughout, now and then a header of
    several fields or a byte-order mark, and in about every other file
    one defect of `_DEFECTS`."""
    defect = draw(st.sampled_from([None] * 6 + sorted(_DEFECTS)))
    rows = [[draw(_FIELDS) for _ in range(width)] for _ in range(draw(st.integers(1, 8)))]
    if draw(st.integers(0, 7)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = draw(_HUGE)
    if defect == "no-rows":
        rows = []
    elif defect == "bad-field":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, width - 1))] = draw(_DEFECTS[defect])
    elif defect == "ragged" and len(rows) > 1:
        row = rows[draw(st.integers(1, len(rows) - 1))]
        if draw(_DEFECTS[defect]) > 0 or width == 1:
            row.append(draw(_FIELDS))
        else:
            row.pop()
    lines = [",".join(row) for row in rows]
    if defect in ("one-field-header", "mixed-first-row"):
        lines.insert(0, draw(_DEFECTS[defect]))
    elif width > 1 and draw(st.booleans()):
        lines.insert(0, ",".join(draw(st.sampled_from(["x", "y", "z", '"x"', " size "]))
                                 for _ in range(width)))
    for _ in range(draw(st.integers(0, 2))):  # before the first row too
        lines.insert(draw(st.integers(0, len(lines))), draw(_BLANKS))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (end.join(lines) + draw(st.sampled_from(["", end]))).encode()
    if draw(st.booleans()):
        data = "\ufeff".encode() + data
    if defect == "undecodable":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(_DEFECTS[defect]) + data[at:]
    return data


def reference_rows(data):
    """The data rows of a feature file by csv and float() alone, or None
    when the contract rejects it: undecodable text, a non-numeric or
    non-finite field, ragged rows or no rows. Blank and whitespace-only
    lines are skipped; the first other row is a header, and skipped, when
    it has two or more fields and none of them is a number."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    records = [rec for rec in csv.reader(io.StringIO(text, newline=""))
               if any(f.strip() for f in rec)]
    if records and len(records[0]) > 1 and not any(map(_is_number, records[0])):
        records = records[1:]
    try:
        rows = [[float(f) for f in rec] for rec in records]
    except ValueError:
        return None
    if not rows or len({len(row) for row in rows}) > 1:
        return None
    if not all(math.isfinite(v) for row in rows for v in row):
        return None
    return rows


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(files=csv_files())
def test_feature_files_keep_the_input_contract(tmp_path_factory, files):
    folder = tmp_path_factory.mktemp("contract")
    paths = [folder / "a.csv", folder / "b.csv"]
    counts = []
    for path, data in zip(paths, files):
        path.write_bytes(data)
        want = reference_rows(data)
        counts.append(None if want is None else len(want))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = load_feature_csv(path).points
            except InputError:
                got = None
        if want is None:
            assert got is None
        else:
            ref = np.array(want, dtype=np.float64)
            assert got is not None and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        # the two readers agree to the bit wherever both accept the text
        with open(path, newline="", encoding="utf-8-sig") as fh:
            fast = metricspace._read_fast(fh)
            fh.seek(0)
            try:
                exact = metricspace._read_exact(fh, path, True)
            except InputError:
                exact = None
        if fast is not None and exact is not None:
            assert fast.tobytes() == exact.tobytes() and fast.shape == exact.shape

    report = cli_report(folder, ["measures", "--set-a", str(paths[0]), "--set-b", str(paths[1])],
                        counts)
    if report is not None:
        assert [report["n"], report["m"]] == counts


@settings(max_examples=150, deadline=None)
@given(files=csv_files())
def test_ecd_feature_files_keep_the_input_contract(tmp_path_factory, files):
    folder = tmp_path_factory.mktemp("contract-ecd")
    paths = [folder / "a.csv", folder / "b.csv"]
    counts = []
    for path, data in zip(paths, files):
        path.write_bytes(data)
        want = reference_rows(data)
        counts.append(None if want is None else len(want))
    # k = 1 spans any two sets of 2 or more points; a larger first set is
    # subsampled to the second's size, which the report gives as its n
    report = cli_report(folder, ["ecd", "--set-a", str(paths[0]), "--set-b", str(paths[1]),
                                 "--k", "1", "--seed", "0"], counts)
    if report is not None:
        assert [report["n"], report["m"]] == [min(counts), counts[1]]


def cli_report(folder, args, counts):
    """The JSON report of CLI `args` when it exits 0, else None once its
    exit is checked: 2 with one `error:` line, or 3 with one `numeric
    error:` line, which only files that both load may give."""
    out, err = folder / "out.json", io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*args, "--out", str(out)])
    if code == 0:
        return json.loads(out.read_text())
    assert code == 2 or (code == 3 and None not in counts)
    message = err.getvalue()
    assert message.startswith("numeric error: " if code == 3 else "error: ")
    assert message.count("\n") == 1 and message.endswith("\n")
    return None


# --- the distance-mode input contract as a property -------------------------

TOLERANCE = metricspace.INGEST_TOLERANCE
#: one perturbation of a clean matrix: its kind, whether its size lies
#: within the tolerance, and the entry it moves
_PERTURBATIONS = st.tuples(st.sampled_from(["asymmetry", "diagonal", "sign"]), st.booleans(),
                           st.integers(0, 10**6), st.integers(0, 10**6))


@st.composite
def distance_files(draw):
    """A small distance matrix, up to three perturbations of it, now and
    then a ragged or non-square layout, and a split that may leave a side
    below 2: (raw rows, layout defect, split)."""
    n = draw(st.integers(4, 8))
    entry = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 100.0))
    upper = np.triu(np.array([[draw(entry) for _ in range(n)] for _ in range(n)]), k=1)
    raw = upper + upper.T
    for kind, within, r, c in draw(st.lists(_PERTURBATIONS, max_size=3)):
        size = TOLERANCE * (0.5 if within else 1e3)
        i, j = r % n, c % n
        if kind == "diagonal":
            raw[i, i] = size * draw(st.sampled_from([-1.0, 1.0]))
        elif kind == "sign":
            raw[i, j] = raw[j, i] = -size
        elif i != j:
            raw[i, j] += size
    layout = draw(st.sampled_from([None] * 8 + ["ragged", "extra-row", "extra-column"]))
    return raw, layout, draw(st.integers(2, n - 2) | st.integers(0, n))


def _write_matrix(path, raw, layout):
    rows = [[repr(float(v)) for v in row] for row in raw]
    if layout == "ragged":
        rows[-1].append("1.0") if len(rows) == 1 else rows[-1].pop()
    elif layout == "extra-row":
        rows.append(list(rows[0]))
    elif layout == "extra-column":
        rows = [row + ["1.0"] for row in rows]
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def _expected_load(raw, layout):
    """(error type, message) the contract gives a matrix file, or (None,
    repaired matrix): the layout first, then asymmetry, diagonal and
    sign, each a maximum over the whole raw matrix."""
    if layout == "ragged":
        return SchemaError, None
    if layout is not None:
        return NonSquareError, None
    asym = np.max(np.abs(raw - raw.T))
    if asym > TOLERANCE:
        return AsymmetryError, f"max |d[i,j] - d[j,i]| = {asym:g} exceeds tolerance {TOLERANCE:g}"
    diag = np.max(np.abs(np.diagonal(raw)))
    if diag > TOLERANCE:
        return NonzeroDiagonalError, f"max |d[i,i]| = {diag:g} exceeds tolerance {TOLERANCE:g}"
    low = np.min(raw)
    if low < -TOLERANCE:
        return NegativeDistanceError, f"min entry {low:g} below -tolerance {-TOLERANCE:g}"
    repaired = (raw + raw.T) / 2.0
    np.fill_diagonal(repaired, 0.0)
    return None, np.clip(repaired, 0.0, None)


def _run_cli(folder, args):
    out, err = folder / "out.json", io.StringIO()
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(err):
        code = main([*args, "--out", str(out)])
    return code, err.getvalue(), out.read_text() if code == 0 else None


@settings(max_examples=150, deadline=None)
@given(case=distance_files())
def test_distance_files_keep_the_input_contract(tmp_path_factory, case):
    raw, layout, split = case
    path = tmp_path_factory.mktemp("contract-distances") / "d.csv"
    _write_matrix(path, raw, layout)
    error, want = _expected_load(raw, layout)
    try:
        got = load_distance_csv(path)
    except InputError as exc:
        assert type(exc) is error
        if want is not None:
            assert str(exc) == f"{path}: {want}"
    else:
        assert error is None
        assert got.values.tobytes() == want.tobytes()
        d = DistanceMatrix(want)
    n = raw.shape[0]
    if error is None and min(split, n - split) < 2:
        error = SizeMismatch
    io_args = ["--distances", str(path), "--split", str(split)]
    for command in ("ecd", "measures"):
        args = [command, *io_args] + (["--k", "1", "--seed", "0"] if command == "ecd" else [])
        code, message, text = _run_cli(path.parent, args)
        if error is not None:
            assert code == 2 and message.startswith("error: ") and message.count("\n") == 1
            continue
        labels = PooledLabels(split, n - split)
        try:
            if command == "measures":
                report = {**measures_from_cross(d.values[:split, split:]).to_json_dict(),
                          "n": split, "m": n - split}
            elif split > n - split:
                report = ecd_subsampled_from_distances(d, labels, 1, DEFAULT_ROUNDS, 0).to_json_dict()
            else:
                report = ecd_from_distances(d, labels, 1).to_json_dict() | {"seed": 0}
        except NumericError:
            assert code == 3 and message.startswith("numeric error: ")
            continue
        assert code == 0 and json.loads(text) == json.loads(json.dumps(report))
