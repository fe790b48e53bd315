"""Property test: the CLI meets mutated input files with exit 2 or 3.

Valid signal and coefficient files, CSV and binary, are damaged one way
at a time: payload rows dropped or added, the header replaced by garbage,
the band-limit or grid kind changed, header fields or payload bytes of a
binary file altered, a file handed to the command for the other record
type, or a band-limit requested that the coefficients do not have.  Each
run of ``forward``, ``inverse``, ``integrate`` or ``tv-norm`` on such
input must end with exit code 2 (parse or validation failure) or 3
(grid contract violation) and an ``error:`` line, never with an uncaught
exception.
"""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equisphere.cli import main
from equisphere.fileio import write_coeffs, write_signal
from equisphere.samples import random_coeffs
from equisphere.transforms import inverse

L = 3
_HEADER = struct.Struct("<8sIIIIIQ28x")
# binary header fields: magic, version, record type, kind code, L, value type, count
_FIELD_MAX = (None, 2**32 - 1, 2**32 - 1, 2**32 - 1, 2**32 - 1, 2**32 - 1, 2**64 - 1)
_SIGNAL_COMMANDS = (["forward"], ["integrate"], ["tv-norm"])


@pytest.fixture(scope="module")
def base_files():
    """Valid file bytes keyed by (record, kind, binary); kind is None for coefficients."""
    coeffs = random_coeffs(L, np.random.default_rng(9))
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        for binary in (False, True):
            for kind in ("dh", "mw"):
                write_signal(path, inverse(kind, coeffs), binary=binary)
                files[("signal", kind, binary)] = path.read_bytes()
            write_coeffs(path, coeffs, binary=binary)
            files[("coeffs", None, binary)] = path.read_bytes()
    return files


_line_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())


def _means(text: str, value) -> bool:
    # whether the reader would take ``text`` for ``value`` after all
    if isinstance(value, int):
        try:
            return int(text) == value
        except ValueError:
            return False
    return text.lower() == value


def _text_mutation(draw, record, kind, data: bytes) -> bytes:
    lines = data.decode().splitlines()
    header, rows = lines[0], lines[1:]
    fields = header.split(",")
    how = draw(st.sampled_from(["truncate", "extra", "garbage", "wrong_L", "kind"]))
    if how == "kind" and record == "coeffs":
        how = "wrong_L"  # coefficient headers name no grid kind
    if how == "truncate":
        drop = draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
        rows = [r for i, r in enumerate(rows) if i not in drop]
    elif how == "extra":
        extra = draw(st.lists(st.one_of(st.just(rows[0]), _line_text), min_size=1, max_size=5))
        at = draw(st.integers(0, len(rows)))
        rows = rows[:at] + extra + rows[at:]
    elif how == "garbage":
        if draw(st.booleans()):
            raw = draw(st.binary(min_size=0, max_size=64)).replace(b"\n", b"").replace(b"\r", b"")
            return raw + b"\n" + "\n".join(rows).encode() + b"\n"
        valid = header.lower()
        header = draw(_line_text.filter(lambda s: s.strip().lower() != valid))
    elif how == "wrong_L":
        new_L = draw(st.one_of(st.integers(-5, 10**12), _line_text).map(str))
        new_L = new_L.replace(",", ";")
        assume(not _means(new_L, L))
        fields[-1 if record == "coeffs" else 3] = new_L
        header = ",".join(fields)
    else:
        new_kind = draw(st.one_of(st.just("mw" if kind == "dh" else "dh"), _line_text))
        new_kind = new_kind.replace(",", ";")
        assume(not _means(new_kind, kind))
        fields[2] = new_kind
        header = ",".join(fields)
    return ("\n".join([header, *rows]) + "\n").encode()


def _binary_mutation(draw, record, data: bytes) -> bytes:
    how = draw(st.sampled_from(["truncate", "extra", "field", "garbage"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "extra":
        return data + draw(st.binary(min_size=1, max_size=64))
    if how == "garbage":
        return draw(st.binary(min_size=64, max_size=64)) + data[64:]
    fields = list(_HEADER.unpack(data[:64]))
    # the reader ignores the kind code of a coefficient record
    choices = [0, 1, 2, 4, 5, 6] + ([3] if record == "signal" else [])
    i = draw(st.sampled_from(choices))
    if i == 0:
        new = draw(st.binary(min_size=8, max_size=8).filter(lambda b: b != fields[0]))
    else:
        new = draw(st.integers(0, _FIELD_MAX[i]).filter(lambda n: n != fields[i]))
    fields[i] = new
    return _HEADER.pack(*fields) + data[64:]


@st.composite
def damaged_runs(draw, files):
    record, kind, binary = key = draw(st.sampled_from(sorted(files, key=str)))
    data = files[key]
    if draw(st.integers(0, 9)) == 0:
        # an intact file handed to a command reading the other record type
        command = ["inverse", "--kind", "dh"] if record == "signal" else ["forward"]
        return command, data
    if record == "coeffs" and draw(st.integers(0, 4)) == 0:
        # intact coefficients, synthesized at a band-limit they do not have
        other_L = draw(st.integers(-5, 10**6).filter(lambda n: n != L))
        return ["inverse", "--kind", draw(st.sampled_from(["dh", "mw"])), "-L", str(other_L)], data
    if binary:
        data = _binary_mutation(draw, record, data)
    else:
        data = _text_mutation(draw, record, kind, data)
    if record == "signal":
        command = draw(st.sampled_from(_SIGNAL_COMMANDS))
    else:
        command = ["inverse", "--kind", draw(st.sampled_from(["dh", "mw"]))]
    return command, data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_input_exits_2_or_3(base_files, data):
    command, payload = data.draw(damaged_runs(base_files))
    with tempfile.TemporaryDirectory() as tmp:
        infile = Path(tmp) / "in"
        infile.write_bytes(payload)
        argv = [command[0], "--in", str(infile), *command[1:]]
        if command[0] in ("forward", "inverse"):
            argv += ["--out", str(Path(tmp) / "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (2, 3), (argv, payload[:200], err.getvalue())
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""
