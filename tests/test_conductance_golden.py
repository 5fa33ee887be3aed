"""Byte identity of the conductance CLI, the equivalence suite and the help
of the two commands whose choices come from tables.

Each digest is SHA-256 over one record per call (the argv, the exit code,
and SHA-256 of stdout and of stderr), with the count of each exit code
beside it.  They were recorded while the route list was still spelled out
in `conductance_paths`, the CLI and the equivalence suite, and pin every
byte those print: values, provenance order, degenerate-route reports and
single-route refusals.  A change that alters one must not regenerate them.
"""

import contextlib
import hashlib
import io

import pytest

from vtangle.cli import main
from vtangle.verify import Envelope, iter_vectors

# Every vector of the 3,2 envelope, then vectors on which some route
# degenerates (1v,1v; inf,2v; 2v,0v,1v; 0,1,2v) and one past the closed forms.
EXTRA = ("1v,1v", "inf,2v", "2v,0v,1v", "0,1,2v", "1,2v,-1,3")
VECTORS = tuple(str(v) for v in iter_vectors(Envelope(3, 2))) + EXTRA

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

CONDUCTANCE = {
    "all": ({0: 1048, 3: 57}, "125befde8804b8a2b9b9dfaecdfdad771323be1b1751874aafbd812d8defe707"),
    "state-sum": ({0: 1105}, "c031665db37f546bb143596a8b7a4fe41667ae596f935ab7c8b9eb4c5c136235"),
    "recursion": ({0: 1059, 3: 46}, "c95f0bc7d301371dd43c6673065baed9edd4a043c89d77b47a3b46e2f78ba6c8"),
    "continued-fraction": (
        {0: 1059, 3: 46},
        "d8cfe8b12d19e59423563f8e5fc3f4e228c8ef8e6d7e9c689ef461bb96d14ba5",
    ),
    "closed-form": ({0: 1093, 3: 12}, "6b72cb271bb6c0afa0bf396a2d912450d98c80ae7d1b44f7746f57c6484e78fc"),
    "classical-fraction": (
        {0: 150, 2: 955},
        "a5c152c39d21435842bf300620d0f6a06e1b05f8406e09b45112a0c62ee90a94",
    ),
}

SINGLE = {
    "verify --suite equivalence --envelope 3,3": (
        3,
        "a3c59c0c83b7a0390554f376f8e3b83f8182f7d82212fec9641a3feaf48cad22",
        EMPTY,
    ),
    "conductance -h": (0, "7dc5e95afc058038537b8ea87daee8e8fbbd17970ee18a8aad7b98313d4b90c9", EMPTY),
    "verify -h": (0, "ae128e5e431125991c51988545d41962444f9ed20ae50ccd0e6416716a3c408e", EMPTY),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest_calls(argvs):
    """({exit code: count}, SHA-256 over one record per call)."""
    h = hashlib.sha256()
    codes = {}
    for argv in argvs:
        code, out, err = _call(argv)
        codes[code] = codes.get(code, 0) + 1
        h.update(f"{' '.join(argv)}\n{code}\n{_sha(out)}\n{_sha(err)}\n".encode())
    return codes, h.hexdigest()


def conductance_argvs(path):
    extra = [] if path == "all" else ["--path", path]
    return [["conductance", text, *extra] for text in VECTORS]


def test_vector_set():
    assert len(VECTORS) == 1100 + len(EXTRA)


@pytest.mark.parametrize("path", sorted(CONDUCTANCE))
def test_conductance_output_is_byte_identical(path):
    assert digest_calls(conductance_argvs(path)) == CONDUCTANCE[path]


@pytest.mark.parametrize("command", sorted(SINGLE))
def test_single_call_output_is_byte_identical(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    code, out, err = _call(command.split())
    assert (code, _sha(out), _sha(err)) == SINGLE[command]
