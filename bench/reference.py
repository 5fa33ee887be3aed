"""Output checks for the benchmark, independent of the route under test.

The bracket reference folds the tangle algebra: bracket_elementary for each
entry, combined by combine_triples in the same sum/stack order as
build_basic.  It never runs the 2^N state sum, and selftest.py ties it to
that oracle.  Each check returns an Outcome for one CLI call.
"""

from __future__ import annotations

import json
from itertools import product
from typing import NamedTuple

from vtangle.bracket import (
    TRIPLE_H,
    TRIPLE_V,
    BracketTriple,
    bracket_elementary,
    combine_triples,
)
from vtangle.conductance import (
    PATH_STATE_SUM,
    classical_fraction,
    conductance_from_bracket,
)
from vtangle.diagram import HORIZONTAL, PLUS, STAR, VERTICAL
from vtangle.errors import TangleError
from vtangle.vector import INF, TangleVector, parse_vector

EXIT_OK = 0
EXIT_COMPUTE = 3
EXIT_VERIFY = 4


class Outcome(NamedTuple):
    """ops the call reported, ops attempted, ops failed, and why.

    refused counts ops that exited 3 with a documented degeneracy of a
    fast route where the reference has a value; they are not failures.
    """

    ops: int
    attempted: int
    failed: int
    problems: list
    refused: int = 0


def fold_bracket(vec: TangleVector) -> BracketTriple:
    """Bracket triple of build_basic(vec), folded entry by entry."""
    entries = vec.normalized().entries
    a0, e0 = entries[0]
    t = TRIPLE_V if a0 is INF else bracket_elementary(a0, e0, HORIZONTAL)
    for i, (a, e) in enumerate(entries[1:], start=1):
        if i % 2 == 1:
            t = combine_triples(t, bracket_elementary(a, e, VERTICAL), STAR)
        else:
            t = combine_triples(t, bracket_elementary(a, e, HORIZONTAL), PLUS)
    if len(entries) % 2 == 0:
        t = combine_triples(t, TRIPLE_H, PLUS)
    return t


def reference_conductance(vec: TangleVector):
    """(C, problem): C from the folded bracket, None where it has no value.

    On a marker-free vector the classical continued fraction must agree;
    otherwise the reference itself is broken and problem says so.
    """
    try:
        c = conductance_from_bracket(fold_bracket(vec))
    except TangleError:
        c = None
    if vec.classical:
        try:
            classical = classical_fraction([a for a, _ in vec.entries])
        except TangleError:
            classical = None
        if classical != c:
            return c, f"reference {c} != classical fraction {classical}"
    return c, None


def _triple_strings(t: BracketTriple) -> dict:
    return {"f": str(t.f), "g": str(t.g), "h": str(t.h)}


def _load(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _refusal(argv, path, doc, vec, c) -> list:
    """Problems with an exit-3 conductance call where the reference has c.

    A single recursion or continued-fraction call may refuse a vector on
    which that route is degenerate.  An all-routes call may refuse when
    some route is degenerate, and must then report the value the other
    routes, the state sum among them, agree on.
    """
    if doc is None or doc.get("vector") != str(vec):
        return ["exit 3 without a report for this vector"]
    if path is not None:
        if path == PATH_STATE_SUM or doc.get("path") != path:
            return [f"exit 3 on --path {path} where the reference has value {c}"]
        return []
    degenerate = doc.get("degenerate") or {}
    agreeing = doc.get("agreeing") or {}
    if not degenerate or PATH_STATE_SUM in degenerate:
        return [f"exit 3 with degenerate routes {sorted(degenerate)}"]
    if agreeing.get("C") != str(c) or PATH_STATE_SUM not in agreeing.get("routes", []):
        return [f"agreeing {agreeing} != reference {c} by the state sum"]
    return []


def check_query(argv, rc, out, err) -> Outcome:
    """One `bracket V` or `conductance V [--path P]` call.

    `bracket` always has a value: the triple.  A `conductance` call must
    exit 3 where the reference has no value.  Where it has one, the call
    gives that value, or exits 3 with a documented degenerate route
    (counted as refused, see _refusal).
    """
    vec = parse_vector(argv[-1])
    c, problem = reference_conductance(vec)
    if problem:
        return Outcome(1, 1, 1, [problem])
    command = argv[0]
    path = argv[argv.index("--path") + 1] if "--path" in argv else None
    refused = 0
    if command == "conductance" and c is None:
        problems = [] if rc == EXIT_COMPUTE else [f"exit {rc} where the reference has no value"]
    elif command == "conductance" and rc == EXIT_COMPUTE:
        problems = _refusal(argv, path, _load(err), vec, c)
        refused = int(not problems)
    elif rc != EXIT_OK or (doc := _load(out)) is None:
        problems = [f"exit {rc} where the reference has a value"]
    else:
        problems = _check_document(command, path, doc, vec, c)
    return Outcome(1, 1, int(bool(problems)), [f"{argv}: {p}" for p in problems], refused)


def _check_document(command, path, doc, vec, c) -> list:
    """Problems with the JSON document of a call that exited 0."""
    problems = []
    if doc.get("vector") != str(vec):
        problems.append(f"vector {doc.get('vector')!r} != {str(vec)!r}")
    if command == "bracket" or path in (None, PATH_STATE_SUM):
        t = _triple_strings(fold_bracket(vec))
        got = doc if command == "bracket" else doc.get("bracket", {})
        got = {k: got.get(k) for k in "fgh"}
        if got != t:
            problems.append(f"bracket {got} != reference {t}")
    if command == "conductance":
        if doc.get("C") != str(c):
            problems.append(f"C {doc.get('C')!r} != reference {str(c)!r}")
        routes = doc.get("provenance") or []
        if path is not None and routes != [path]:
            problems.append(f"provenance {routes} for --path {path}")
        if path is None and len(routes) < 2:
            problems.append(f"all-routes call reported only {routes}")
    return problems


def envelope_vectors(n_max: int, a_max: int):
    """Every valid vector of the enumerate envelope, by the entry rules."""
    ints = [(a, e) for a in range(-a_max, a_max + 1) for e in (0, 1)]
    firsts = ints + [(INF, 0)]
    for n in range(1, n_max + 1):
        for combo in product(firsts, *[ints] * (n - 1)):
            vec = TangleVector(combo)
            try:
                vec.validate()
            except TangleError:
                continue
            yield vec


def envelope_reference(n_max: int, a_max: int) -> dict:
    """vector text -> (reference C or None, problem or None)."""
    return {str(v): reference_conductance(v) for v in envelope_vectors(n_max, a_max)}


def check_enumerate(rc, out, expected: dict) -> Outcome:
    """One enumerate call: every record's C, the bucket ids and findings.

    An op is one vector of the envelope; attempted is the envelope size.
    """
    attempted = len(expected)
    doc = _load(out) if rc in (EXIT_OK, EXIT_COMPUTE) else None
    if doc is None:
        return Outcome(0, attempted, attempted, [f"enumerate exited {rc}"])
    problems = []
    wrong = set()
    seen = set()
    bucket_of_value = {}
    value_of_bucket = {}
    records = doc.get("records", [])
    for rec in records:
        vec = rec.get("vector")
        c, problem = expected.get(vec, (None, f"unexpected vector {vec!r}"))
        if problem or vec in seen or c is None:
            wrong.add(vec)
            problems.append(problem or f"{vec}: duplicate or refused-by-reference record")
            continue
        seen.add(vec)
        value, bid = rec.get("conductance"), rec.get("bucket_id")
        if value != str(c) or rec.get("is_real") != c.is_real:
            wrong.add(vec)
            problems.append(f"{vec}: C {value!r} real={rec.get('is_real')} != {c}")
        if bucket_of_value.setdefault(value, bid) != bid:
            wrong.add(vec)
            problems.append(f"{vec}: value {value} split across buckets")
        if value_of_bucket.setdefault(bid, value) != value:
            wrong.add(vec)
            problems.append(f"{vec}: bucket {bid} holds two values")
    for vec, (c, _) in expected.items():
        if vec not in seen and c is not None:
            wrong.add(vec)
            problems.append(f"{vec}: missing")
    findings = doc.get("summary", {}).get("findings", [])
    for finding in findings:
        vec = finding.get("vector")
        if expected.get(vec, (True,))[0] is not None:
            wrong.add(vec)
            problems.append(f"finding {finding}")
    if (rc == EXIT_COMPUTE) != bool(findings):
        wrong.add(None)
        problems.append(f"exit {rc} with {len(findings)} findings")
    return Outcome(len(records), attempted, min(len(wrong), attempted), problems)


def check_verify(argv, rc, out) -> Outcome:
    """One verify call; an op is one reported check row.

    Exit 3 with only indeterminate rows is the documented success.  A fail
    row (which includes a failed negative control), a finding, exit 4, or
    a row count that does not match the samples is a failure.
    """
    doc = _load(out) if rc in (EXIT_OK, EXIT_COMPUTE, EXIT_VERIFY) else None
    if doc is None:
        return Outcome(0, 1, 1, [f"{argv}: exit {rc}"])
    rows = doc.get("checks", 0)
    counts = doc.get("counts", {})
    fails, findings = doc.get("fails", []), doc.get("findings", [])
    indeterminate = doc.get("indeterminate", [])
    problems = [f"fail row {r}" for r in fails] + [f"finding {r}" for r in findings]
    failed = len(problems)
    if fails:
        want_rc = EXIT_VERIFY
    elif indeterminate or findings:
        want_rc = EXIT_COMPUTE
    else:
        want_rc = EXIT_OK
    samples = int(argv[argv.index("--samples") + 1])
    suite = argv[argv.index("--suite") + 1]
    # An invariance sample gives at least six rows; the negative control one.
    enough = rows >= 6 * samples + 1 if suite == "invariance" else rows == samples
    consistent = (
        rc == want_rc
        and sum(counts.values()) == rows
        and counts.get("indeterminate", 0) == len(indeterminate)
        and enough
    )
    if not consistent:
        problems.append(f"inconsistent report: exit {rc}, {rows} checks, counts {counts}")
        failed = max(failed, 1)
    attempted = max(rows, 1)
    return Outcome(rows, attempted, min(failed, attempted), [f"{argv}: {p}" for p in problems])
