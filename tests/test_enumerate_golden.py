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

# The same digests for exact argv lists, recorded while every vector's
# conductance was still computed by its own recursion pass: the benchmark's
# enumerate call, and a CSV survey with interior marked zeros and a fallback.
ARGV_GOLDEN = {
    ("enumerate", "--envelope", "3,5", "--format", "json"): (
        0, "c425e6b96d41d223df280d01cc107eb6e0120010cb95ae8f58f801d3926e463c"),
    ("enumerate", "--envelope", "4,2", "--format", "csv"): (
        0, "64275bedfa98e3473261fa63b7eedf0ad82638f12c17d23b1864f7425ae01b13"),
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


@pytest.mark.parametrize("argv", sorted(ARGV_GOLDEN), ids=" ".join)
def test_enumerate_argv_output_is_byte_identical(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    want_code, want_out = ARGV_GOLDEN[argv]
    assert (code, _sha(captured.out), _sha(captured.err)) == (want_code, want_out, EMPTY)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_enumerate_out_file_matches_stdout(capsys, tmp_path, fmt):
    argv = ["enumerate", "--envelope", "2,3", "--format", fmt]
    code = main(argv)
    stdout = capsys.readouterr().out
    target = tmp_path / f"survey.{fmt}"
    assert main(argv + ["--out", str(target)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "")
    assert target.read_bytes() == stdout.encode()
