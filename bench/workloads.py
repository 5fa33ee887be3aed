"""Seeded input streams for the three benchmark workloads.

Each workload is an endless sequence of rounds; a round is a list of argv
lists for ``vtangle.cli.main``.  A run measures whole rounds, so every run
of a workload sees the same mix, and the seed only changes which inputs
fill it.  Generation happens between timed calls.

Vectors go after ``--``: argparse reads a leading negative entry such as
``-2,3`` as an option and exits 2 ("the following arguments are required:
vector") without it.
"""

from __future__ import annotations

import random

from vtangle.conductance import PATH_FRACTION, PATH_RECURSION, PATH_STATE_SUM
from vtangle.errors import TangleError
from vtangle.vector import INF, TangleVector

WORKLOADS = ("query", "enumerate", "verify")

# query: every command meets every classical crossing count once per round.
QUERY_COMMANDS = (
    ("bracket",),
    ("conductance",),
    ("conductance", "--path", PATH_STATE_SUM),
    ("conductance", "--path", PATH_RECURSION),
    ("conductance", "--path", PATH_FRACTION),
)
QUERY_CROSSINGS = range(0, 14)
QUERY_MAX_LENGTH = 5
QUERY_MARK_RATE = 0.3
QUERY_INF_RATE = 0.15

ENUMERATE_ENVELOPE = (3, 5)

VERIFY_SUITES = ("invariance", "ratio", "additivity")
# Small calls, so that a run has enough of them for a 95th percentile.
VERIFY_SAMPLES = 20

# Rounds a time-bounded run always completes: at least 200 calls where a
# round is short, to leave ten or more latencies above the 95th percentile.
MIN_ROUNDS = {"query": 3, "enumerate": 1, "verify": 67}
# Rounds the traced run replays, fixed so that its counts repeat exactly.
TRACE_ROUNDS = {"query": 2, "enumerate": 1, "verify": 15}


def query_vector(rng: random.Random, crossings: int) -> TangleVector:
    """A valid vector with exactly `crossings` classical crossings.

    Length 1-5, each entry marked with probability 0.3, and an occasional
    inf first entry.  A draw that breaks the entry rules is drawn again;
    nothing else is filtered, so vectors on which a fast route is
    degenerate (such as 0,1,2v) stay in the stream.
    """
    while True:
        length = rng.randint(1, QUERY_MAX_LENGTH)
        lead_inf = length >= 2 and rng.random() < QUERY_INF_RATE
        slots = length - lead_inf
        cuts = sorted(rng.randint(0, crossings) for _ in range(slots - 1))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, crossings])]
        entries = [(INF, 0)] if lead_inf else []
        for size in sizes:
            a = size if rng.random() < 0.5 else -size
            entries.append((a, int(rng.random() < QUERY_MARK_RATE)))
        vec = TangleVector(tuple(entries))
        try:
            vec.validate()
        except TangleError:
            continue
        return vec


def query_rounds(seed: int):
    rng = random.Random(f"query-{seed}")
    while True:
        calls = [
            [*command, "--", str(query_vector(rng, n))]
            for command in QUERY_COMMANDS
            for n in QUERY_CROSSINGS
        ]
        rng.shuffle(calls)
        yield calls


def enumerate_rounds(seed: int):
    # Exhaustive, so the seed does not enter.
    n_max, a_max = ENUMERATE_ENVELOPE
    while True:
        yield [["enumerate", "--envelope", f"{n_max},{a_max}", "--format", "json"]]


def verify_rounds(seed: int):
    rng = random.Random(f"verify-{seed}")
    while True:
        yield [
            ["verify", "--suite", suite, "--seed", str(rng.randrange(1 << 30)),
             "--samples", str(VERIFY_SAMPLES)]
            for suite in VERIFY_SUITES
        ]


def rounds(workload: str, seed: int):
    """Endless rounds of argv lists for one workload."""
    return {
        "query": query_rounds,
        "enumerate": enumerate_rounds,
        "verify": verify_rounds,
    }[workload](seed)
