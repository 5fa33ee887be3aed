"""Byte identity of the sampled suites' CLI output.

The digests are SHA-256 of stdout and stderr, with the exit code, of
`vtangle verify --suite S --seed N --samples 30`, recorded from the state-sum
engine before the suites moved to port-graph contraction.  They pin every
byte the suites print; a change that alters one must not regenerate them.
"""

import hashlib

import pytest

from vtangle.cli import main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = {
    ("invariance", 0): (0, "266745761f624f307bd38e23ce7e856537f9831f9370568decafbe2cdc4fd5bc"),
    ("invariance", 1): (0, "46a022b1b7c8002028c27d4ddba81f1c5f2a61cfc310dcc61666b1f5f4b5aff6"),
    ("invariance", 2): (0, "b72ae0d935ef185613d163368aa593bc647511c754fc91e099610cb3587ddeb3"),
    ("ratio", 0): (3, "e69403c5c07af9a9d2ccf60a7d8cc1a6b5b5f7844cd20d38223f3a90af8fd947"),
    ("ratio", 1): (0, "05585c900ca0dd64abac07ed0f80a67d545383c27d89ea45584f7147dba4ff95"),
    ("ratio", 2): (3, "77e5135fc5d15ae081a04f14cca020571e405a993ac1da35a82624f0b864a92a"),
    ("additivity", 0): (3, "08dd715529c8bb23c4c15e109cd3fcd951bc4abb4b309fef8d228352473b3be0"),
    ("additivity", 1): (3, "37fba50d20bb244c935a662e41ea5017dbb22b9571a0a78dfd7aacc6a4066b18"),
    ("additivity", 2): (0, "7e41a448d94d5856823e00e7e2f0944a2dbbf44f2bd3d82302c32abb85abda35"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite, seed", sorted(GOLDEN))
def test_verify_suite_output_is_byte_identical(capsys, suite, seed):
    code = main(["verify", "--suite", suite, "--seed", str(seed), "--samples", "30"])
    captured = capsys.readouterr()
    want_code, want_out = GOLDEN[(suite, seed)]
    assert (code, _sha(captured.out), _sha(captured.err)) == (want_code, want_out, EMPTY)
