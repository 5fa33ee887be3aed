"""Byte identity of the enumeration's CLI output.

The digests are SHA-256 of stdout and stderr, with the exit code, of
`vtangle enumerate --envelope E [--format F]`, recorded while the number
tower still stored Fraction coordinates.  They pin every byte the survey
prints: record order, bucket ids, the canonical text of each conductance and
the CSV cells; a change that alters one must not regenerate them.
"""

import hashlib

import pytest

from vtangle.cli import main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = {
    ("3,3", "json"): (0, "e773bd278fae64a33cc43fe3c6e011ffe2aa4407c67383c653953963e35b9953"),
    ("3,3", "csv"): (0, "e2de4317ba8a4f7eceaecc124b3d3d3c5ede499c724e04ea8a1848e5bef3a84b"),
    ("2,4", "json"): (0, "1547672b88b14a824ec598fdd46e87190de454875991eb20a93c8524c6412d61"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("envelope, fmt", sorted(GOLDEN))
def test_enumerate_output_is_byte_identical(capsys, envelope, fmt):
    argv = ["enumerate", "--envelope", envelope]
    if fmt != "json":
        argv += ["--format", fmt]
    code = main(argv)
    captured = capsys.readouterr()
    want_code, want_out = GOLDEN[(envelope, fmt)]
    assert (code, _sha(captured.out), _sha(captured.err)) == (want_code, want_out, EMPTY)
