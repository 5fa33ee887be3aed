"""Command-line front end: parse tangle text, run computations and suites,
emit JSON or CSV documents.

Exit codes: 0 success, 2 parse error or an input the command does not take
(a marked vector for the classical fraction), 3 computation error or
finding, 4 verification failure (routes disagree or an identity check fails).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .bracket import bracket, bracket_vector  # noqa: F401  (bracket stays importable here)
from .conductance import (
    DEGENERATE,
    DISAGREE,
    PATH_CLASSICAL,
    PATH_STATE_SUM,
    ROUTES,
    agree,
    classical_fraction,
    conductance_paths,
)
from .errors import TangleError, VectorRuleError, VectorSyntaxError
from .vector import parse_vector
from .verify import (
    STATUS_FAIL,
    STATUS_FINDING,
    STATUS_INDETERMINATE,
    Envelope,
    enumerate_classify,
    run_additivity_suite,
    run_equivalence_suite,
    run_invariance_suite,
    run_ratio_suite,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_COMPUTE = 3
EXIT_VERIFY = 4


def _write(chunks, out=None) -> None:
    """Write text chunks in order to the file out, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit(doc: dict, out=None) -> None:
    _write((json.dumps(doc, indent=2), "\n"), out)


def _fail(doc: dict, code: int) -> int:
    sys.stderr.write(json.dumps(doc, indent=2) + "\n")
    return code


def _parse_vector_arg(text: str):
    """(vector, None) on success, (None, exit code) after reporting."""
    try:
        vec = parse_vector(text)
        vec.validate()
    except VectorSyntaxError as exc:
        return None, _fail({"error": str(exc), "offset": exc.offset}, EXIT_PARSE)
    except VectorRuleError as exc:
        return None, _fail({"error": str(exc), "position": exc.position}, EXIT_PARSE)
    return vec, None


def _envelope_arg(text: str):
    """(Envelope, None) on success, (None, exit code) after reporting."""
    try:
        # A count other than two fails the unpacking with ValueError too.
        n_max, a_max = map(int, text.split(","))
    except ValueError:
        n_max = a_max = -1
    if n_max < 1 or a_max < 0:
        return None, _fail({"error": f"bad envelope {text!r}, expected n_max,a_max"}, EXIT_PARSE)
    return Envelope(n_max, a_max), None


def cmd_bracket(args) -> int:
    vec, code = _parse_vector_arg(args.vector)
    if vec is None:
        return code
    _emit({"vector": str(vec), **bracket_vector(vec).as_dict()}, args.out)
    return EXIT_OK


def cmd_conductance(args) -> int:
    vec, code = _parse_vector_arg(args.vector)
    if vec is None:
        return code
    if args.path == PATH_CLASSICAL and not vec.classical:
        return _fail(
            {"vector": str(vec), "error": "classical-fraction needs a marker-free vector"},
            EXIT_PARSE,
        )
    # The bracket is computed once, and the document carries it, whenever
    # the state sum runs.
    t = bracket_vector(vec) if args.path in (None, PATH_STATE_SUM) else None
    if args.path:
        try:
            value = ROUTES[args.path].run(vec, t)
        except TangleError as exc:
            return _fail({"vector": str(vec), "error": str(exc), "path": args.path}, EXIT_COMPUTE)
        doc = {"vector": str(vec), "C": str(value), "provenance": [args.path]}
    else:
        values, errors = conductance_paths(vec, triple=t)
        verdict, ordered, _ = agree(values, errors)
        if verdict == DISAGREE:
            return _fail(
                {
                    "vector": str(vec),
                    "error": "routes disagree",
                    "routes": {p: str(values[p].value) for p in ordered},
                },
                EXIT_VERIFY,
            )
        if verdict == DEGENERATE:
            doc = {
                "vector": str(vec),
                "error": "some routes were degenerate; no unanimous value",
                "degenerate": {p: str(e) for p, e in sorted(errors.items())},
            }
            if ordered:
                doc["agreeing"] = {
                    "C": str(values[ordered[0]].value),
                    "routes": ordered,
                }
            return _fail(doc, EXIT_COMPUTE)
        doc = {"vector": str(vec), "C": str(values[ordered[0]].value), "provenance": ordered}
    if t is not None:
        doc["bracket"] = t.as_dict()
    _emit(doc, args.out)
    return EXIT_OK


def cmd_fraction(args) -> int:
    vec, code = _parse_vector_arg(args.vector)
    if vec is None:
        return code
    if not vec.classical:
        return _fail(
            {"vector": str(vec), "error": "fraction needs a marker-free vector"},
            EXIT_PARSE,
        )
    value = classical_fraction([a for a, _ in vec.entries])
    _emit({"vector": str(vec), "F": value.real_str()}, args.out)
    return EXIT_OK


# The suites in run and report order; "all" runs every one.
_SUITES = {
    "equivalence": lambda env, args: run_equivalence_suite(env),
    "invariance": lambda env, args: run_invariance_suite(seed=args.seed, count=args.samples),
    "additivity": lambda env, args: run_additivity_suite(seed=args.seed, count=args.samples),
    "ratio": lambda env, args: run_ratio_suite(seed=args.seed, count=args.samples),
}


def cmd_verify(args) -> int:
    env, code = _envelope_arg(args.envelope)
    if env is None:
        return code
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in suites:
        reports.extend(_SUITES[name](env, args))
    reports.sort(key=lambda r: (r.name, r.instance))
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    doc = {
        "envelope": env.as_dict(),
        "seed": args.seed,
        "samples": args.samples,
        "suites": suites,
        "checks": len(reports),
        "counts": counts,
        "fails": [r.as_dict() for r in reports if r.status == STATUS_FAIL],
        "findings": [r.as_dict() for r in reports if r.status == STATUS_FINDING],
        "indeterminate": [
            r.as_dict() for r in reports if r.status == STATUS_INDETERMINATE
        ],
    }
    _emit(doc, args.out)
    if doc["fails"]:
        return EXIT_VERIFY
    if doc["findings"] or doc["indeterminate"]:
        return EXIT_COMPUTE
    return EXIT_OK


def _csv_records(records) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["vector", "C-real", "C-imag", "is-real", "bucket-id"])
    for r in records:
        re_s, im_s = r.conductance.parts_text()
        w.writerow([r.vector, re_s, im_s, "true" if r.is_real else "false", r.bucket_id])
    return buf.getvalue()


# One record as json.dumps(record.as_dict(), indent=2) prints it at the
# depth of the survey document's "records" list.
_RECORD_JSON = (
    "    {{\n"
    '      "vector": {},\n'
    '      "conductance": {},\n'
    '      "is_real": {},\n'
    '      "bucket_id": {},\n'
    '      "provenance": {}\n'
    "    }}"
)
_json_str = json.encoder.encode_basestring_ascii


def _record_json(rec, conductance: str) -> str:
    """One record's text from _RECORD_JSON; conductance is its value's text,
    already JSON-encoded."""
    return _RECORD_JSON.format(
        _json_str(rec.vector),
        conductance,
        "true" if rec.is_real else "false",
        rec.bucket_id,
        _json_str(rec.provenance),
    )


def _survey_json(summary: dict, records):
    """The enumerate JSON document, byte for byte what json.dumps(indent=2)
    prints for {"summary": ..., "records": [...]}, as one text chunk per
    record after the summary, so no string of the whole document is ever
    built.  A bucket's records share one value, which is encoded once.

    A one-record chunk is small enough for the interpreter's small-object
    allocator.  Chunks of many records are C-heap blocks; a writer that
    keeps its chunks until the end (io.StringIO does on CPython 3.11) then
    fragments the heap differently from run to run, and peak memory varied
    by a copy of the document."""
    head = json.dumps({"summary": summary, "records": []}, indent=2)
    if not records:
        yield head + "\n"
        return
    yield head[: -len("]\n}")] + "\n"
    values = {}
    sep = ""
    for rec in records:
        value = values.get(rec.bucket_id)
        if value is None:
            value = values[rec.bucket_id] = _json_str(str(rec.conductance))
        yield sep + _record_json(rec, value)
        sep = ",\n"
    yield "\n  ]\n}\n"


def cmd_enumerate(args) -> int:
    env, code = _envelope_arg(args.envelope)
    if env is None:
        return code
    records, summary = enumerate_classify(env)
    if args.format == "csv":
        _write((_csv_records(records),), args.out)
        if summary["findings"]:
            sys.stderr.write(json.dumps({"findings": summary["findings"]}, indent=2) + "\n")
    else:
        _write(_survey_json(summary, records), args.out)
    return EXIT_COMPUTE if summary["findings"] else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vtangle",
        description="Exact bracket and conductance computations for virtual rational tangles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bracket", help="bracket triple (f, g, h) of a tangle vector")
    b.add_argument("vector", help="tangle vector, e.g. 2,-3v,1 or inf,2")
    b.add_argument("--out", help="write the document to a file instead of stdout")

    c = sub.add_parser(
        "conductance",
        help="conductance C of a tangle vector; all routes must agree",
    )
    c.add_argument("vector", help="tangle vector, e.g. 2,-3v,1 or inf,2")
    c.add_argument("--path", choices=tuple(ROUTES), help="use one route instead of all")
    c.add_argument("--out", help="write the document to a file instead of stdout")

    f = sub.add_parser("fraction", help="classical continued fraction of a marker-free vector")
    f.add_argument("vector", help="marker-free tangle vector, e.g. 2,3,1")
    f.add_argument("--out", help="write the document to a file instead of stdout")

    v = sub.add_parser("verify", help="run the equivalence, invariance, additivity, and ratio suites")
    v.add_argument("--envelope", default="3,3", help="n_max,a_max bounds (default 3,3)")
    v.add_argument("--seed", type=int, default=0, help="seed for sampled suites")
    v.add_argument("--samples", type=int, default=100, help="sample count per sampled suite")
    v.add_argument(
        "--suite",
        choices=("all", *_SUITES),
        default="all",
    )
    v.add_argument("--out", help="write the document to a file instead of stdout")

    e = sub.add_parser("enumerate", help="classify conductances over an envelope")
    e.add_argument("--envelope", default="3,3", help="n_max,a_max bounds (default 3,3)")
    e.add_argument("--format", choices=("json", "csv"), default="json")
    e.add_argument("--out", help="write the document to a file instead of stdout")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves no state
    in it, and argparse objects form reference cycles that would otherwise
    wait for the cyclic collector after every call."""
    return build_parser()


_HANDLERS = {
    "bracket": cmd_bracket,
    "conductance": cmd_conductance,
    "fraction": cmd_fraction,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
}


_VECTOR_COMMANDS = ("bracket", "conductance", "fraction")
_DIGITS = "0123456789"


def _vectors_after_dashes(argv: list) -> list:
    """Move a vector such as -2,3 behind "--" so argparse reads it as the
    positional argument, not as an unknown option.  A token right after a
    --option is that option's value and stays; an argv that already has
    "--" is left as it is."""
    if not argv or argv[0] not in _VECTOR_COMMANDS or "--" in argv:
        return argv
    moved = [
        i
        for i in range(1, len(argv))
        if len(argv[i]) > 1
        and argv[i][0] == "-"
        and argv[i][1] in _DIGITS
        and not (argv[i - 1].startswith("--") and "=" not in argv[i - 1])
    ]
    if not moved:
        return argv
    rest = [a for i, a in enumerate(argv) if i not in moved]
    return rest + ["--"] + [argv[i] for i in moved]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_vectors_after_dashes(argv))
    try:
        return _HANDLERS[args.command](args)
    except TangleError as exc:
        return _fail({"error": str(exc)}, EXIT_COMPUTE)
    except OSError as exc:
        return _fail({"error": str(exc)}, EXIT_COMPUTE)


def run() -> None:
    sys.exit(main())
