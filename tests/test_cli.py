"""CLI contract: documents, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vtangle.cli
import vtangle.conductance
from vtangle.cli import (
    EXIT_CLOSED_STDOUT,
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    main,
)
from vtangle.gaussian import GaussRational
from vtangle.verify import EnumerationRecord, Envelope, enumerate_classify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_document(capsys):
    code, out, _ = run_cli(capsys, "bracket", "1v")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {"vector": "1v", "f": "A^-1", "g": "0", "h": "A"}


def test_conductance_document_golden(capsys):
    code, out, _ = run_cli(capsys, "conductance", "2,3,1v")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["vector"] == "2,3,1v"
    assert doc["C"] == "9/7 + 1/1*i"
    assert "state-sum" in doc["provenance"]
    assert len(doc["provenance"]) >= 3
    assert set(doc["bracket"]) == {"f", "g", "h"}


def test_conductance_trivial(capsys):
    code, out, _ = run_cli(capsys, "conductance", "0")
    assert code == EXIT_OK
    assert json.loads(out)["C"] == "0/1 + 0/1*i"


def test_conductance_single_path(capsys):
    code, out, _ = run_cli(capsys, "conductance", "2,3,1v", "--path", "recursion")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["C"] == "9/7 + 1/1*i"
    assert doc["provenance"] == ["recursion"]


def test_conductance_degenerate_reports(capsys):
    code, out, err = run_cli(capsys, "conductance", "0,1,2v")
    assert code == EXIT_COMPUTE
    assert out == ""
    doc = json.loads(err)
    assert doc["vector"] == "0,1,2v"
    assert "recursion" in doc["degenerate"]
    assert doc["agreeing"]["C"] == "2/1 + 1/1*i"


def test_fraction_document(capsys):
    code, out, _ = run_cli(capsys, "fraction", "2,3,1")
    assert code == EXIT_OK
    assert json.loads(out) == {"vector": "2,3,1", "F": "9/7"}
    code, out, _ = run_cli(capsys, "fraction", "inf")
    assert json.loads(out)["F"] == "inf"
    code, _, err = run_cli(capsys, "fraction", "2,1v")
    assert code == EXIT_PARSE


def test_parse_errors(capsys):
    code, _, err = run_cli(capsys, "conductance", "2,,1")
    assert code == EXIT_PARSE
    assert json.loads(err)["offset"] == 2
    code, _, err = run_cli(capsys, "bracket", "1,0,2")
    assert code == EXIT_PARSE
    assert json.loads(err)["position"] == 2


def test_verify_small_envelope(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--envelope", "2,1", "--samples", "5", "--seed", "1"
    )
    doc = json.loads(out)
    assert doc["fails"] == []
    assert doc["checks"] > 0
    # degenerate rows may appear as indeterminate findings, never as fails
    assert code in (EXIT_OK, EXIT_COMPUTE)
    if doc["indeterminate"] or doc["findings"]:
        assert code == EXIT_COMPUTE
    else:
        assert code == EXIT_OK


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "invariance",
        "--samples",
        "8",
        "--seed",
        "2",
    )
    doc = json.loads(out)
    assert doc["suites"] == ["invariance"]
    assert doc["fails"] == []
    assert code == EXIT_OK


def test_verify_bad_envelope(capsys):
    code, _, err = run_cli(capsys, "verify", "--envelope", "nope")
    assert code == EXIT_PARSE
    # enumerate shares the check and its report
    for text in ("nope", "3", "3,3,3", "x,3", "0,3", "3,-1", ""):
        for command in ("verify", "enumerate"):
            code, out, err = run_cli(capsys, command, "--envelope", text)
            assert (code, out) == (EXIT_PARSE, ""), (command, text)
            assert json.loads(err) == {
                "error": f"bad envelope {text!r}, expected n_max,a_max"
            }


def test_envelope_bounds_are_ascii_digits(capsys):
    # int() takes these; each would otherwise run a survey
    for text in ("1_0,0", "\uff12,1", "2,\uff11", "+2,1", "2,1.0", "2,0x1"):
        for command in ("verify", "enumerate"):
            code, out, err = run_cli(capsys, command, "--envelope", text)
            assert (code, out) == (EXIT_PARSE, ""), (command, text)
            assert json.loads(err) == {
                "error": f"bad envelope {text!r}, expected n_max,a_max"
            }
    # the whitespace a vector entry may have around it is still accepted
    code, out, _ = run_cli(capsys, "enumerate", "--envelope", " 2 ,\t1 ")
    assert code == EXIT_OK
    assert json.loads(out)["summary"]["envelope"]["n_max"] == 2


def test_enumerate_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "enumerate", "--envelope", "2,1")
    code2, out2, _ = run_cli(capsys, "enumerate", "--envelope", "2,1")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["summary"]["findings"] == []
    assert doc["records"]


def test_enumerate_csv(capsys, tmp_path):
    target = tmp_path / "enum.csv"
    code, out, _ = run_cli(
        capsys, "enumerate", "--envelope", "2,1", "--format", "csv", "--out", str(target)
    )
    assert code == EXIT_OK
    lines = target.read_text().splitlines()
    assert lines[0] == "vector,C-real,C-imag,is-real,bucket-id"
    assert len(lines) > 1
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["is-real"] in ("true", "false")


def test_record_template_matches_json_dumps():
    records, summary = enumerate_classify(Envelope(3, 1))
    cases = {
        "infinite C": [r for r in records if r.conductance.is_infinite],
        "state-sum provenance": [r for r in records if r.provenance == "state-sum"],
        "negative real part": [
            r for r in records if not r.conductance.is_infinite and r.conductance.re < 0
        ],
    }
    assert all(cases.values()), {k: len(v) for k, v in cases.items()}
    # No survey value has a negative imaginary part; the template still
    # carries the sign that str(GaussRational) prints for one.  The record
    # needs a bucket of its own: a bucket's text is built once.
    made_up = EnumerationRecord(
        "-2v,1", GaussRational(-3, -1), False, summary["buckets"], "recursion"
    )
    for recs in (records + [made_up], []):
        doc = {"summary": summary, "records": [r.as_dict() for r in recs]}
        text = "".join(vtangle.cli._survey_json(summary, recs))
        assert text == json.dumps(doc, indent=2) + "\n"
    assert '"records": []\n}\n' in "".join(vtangle.cli._survey_json(summary, []))
    # The summary, then one chunk per record, then the closing brackets.
    assert len(list(vtangle.cli._survey_json(summary, records))) == len(records) + 2


def test_survey_json_matches_json_dumps_on_every_section():
    env = Envelope(2, 1).as_dict()
    odd = 'say "x" \\ \u00e9\u2212\U0001d11e'
    empty = {
        "envelope": env,
        "vectors": 0,
        "buckets": 0,
        "collisions": [],
        "real_virtual": [],
        "formula_degenerate": [],
        "findings": [],
    }
    filled = {
        "envelope": env,
        "vectors": 3,
        "buckets": 2,
        "collisions": [
            {"conductance": "1/1 + 0/1*i", "vectors": ["1", "inf,1", odd]},
            {"conductance": odd, "vectors": ["2v", "0v,2"]},
        ],
        "real_virtual": [{"vector": "1v,0v,1v", "conductance": "0/1 + 0/1*i", "explanation": odd}],
        "formula_degenerate": [
            {"vector": "0,1,2v", "error": odd, "conductance": "inf", "provenance": "state-sum"}
        ],
        "findings": [{"vector": odd, "kind": "no-value", "error": odd}],
    }
    records = [
        EnumerationRecord("1", GaussRational(1, 0), True, 0, "recursion"),
        EnumerationRecord("2v", GaussRational(2, 1), False, 1, "state-sum"),
        EnumerationRecord("0v,2", GaussRational(2, 1), False, 1, "state-sum"),
        EnumerationRecord("inf,1", GaussRational(1, 0), True, 0, "recursion"),
    ]
    for summary in (empty, filled):
        for recs in (records, []):
            doc = {"summary": summary, "records": [r.as_dict() for r in recs]}
            text = "".join(vtangle.cli._survey_json(summary, recs))
            assert text == json.dumps(doc, indent=2) + "\n"


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run_cli(capsys, "bracket", "2", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["vector"] == "2"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def _src_env() -> dict:
    """The environment of a child interpreter that imports this vtangle."""
    src = str(Path(vtangle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_m_vtangle_matches_main(capsys):
    code, out, _ = run_cli(capsys, "bracket", "2,3")
    proc = subprocess.run(
        [sys.executable, "-m", "vtangle", "bracket", "2,3"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, out)


def _child_env(unbuffered: bool) -> dict:
    """_src_env() with PYTHONUNBUFFERED set to 1 or removed."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_stdout_exits_quietly(fmt, unbuffered):
    # The survey is far larger than a pipe's buffer, so the CLI is still
    # writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "vtangle", "enumerate", "--envelope", "3,5", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(unbuffered),
    )
    assert proc.stdout.read(10) == {"json": b'{\n  "summa', "csv": b"vector,C-r"}[fmt]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (EXIT_CLOSED_STDOUT, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_write_error_is_reported_once():
    # Buffered, the small document fails only at main's final flush.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "vtangle", "bracket", "2,3"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(unbuffered=False),
            timeout=60,
        )
    assert proc.returncode == EXIT_COMPUTE
    assert json.loads(proc.stderr) == {"error": "[Errno 28] No space left on device"}


def test_import_loads_no_module_the_commands_do_not_need():
    # -S: no site hook may load these first and hide an import of them.
    code = (
        "import sys, vtangle.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'csv'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_negative_sample_count_is_refused(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "ratio", "--samples", "-3")
    assert (code, out) == (EXIT_PARSE, "")
    assert json.loads(err) == {"error": "bad sample count -3, expected 0 or more"}
    code, out, _ = run_cli(capsys, "verify", "--suite", "ratio", "--samples", "0")
    assert code == EXIT_OK
    assert json.loads(out)["samples"] == 0 and json.loads(out)["checks"] == 0


@pytest.mark.parametrize("argv", [("bracket", "200"), ("conductance", "12,12")])
def test_large_vectors_answer_quickly(capsys, argv):
    # the vector bracket is folded, not summed over 2^N states
    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["vector"] == argv[1]
    assert time.monotonic() - t0 < 2.0


def test_conductance_computes_the_bracket_once(capsys, monkeypatch):
    calls = []
    real = vtangle.cli.bracket_vector

    def counting(vec):
        calls.append(str(vec))
        return real(vec)

    monkeypatch.setattr(vtangle.cli, "bracket_vector", counting)
    for path in ((), ("--path", "state-sum")):
        calls.clear()
        code, _, _ = run_cli(capsys, "conductance", "2,3,1v", *path)
        assert code == EXIT_OK
        assert calls == ["2,3,1v"], path


def test_classical_fraction_path_needs_marker_free_vector(capsys):
    # the same condition as `fraction 2,1v` (test_fraction_document), same code
    code, out, err = run_cli(capsys, "conductance", "1v", "--path", "classical-fraction")
    assert code == EXIT_PARSE
    assert out == ""
    assert json.loads(err) == {
        "vector": "1v",
        "error": "classical-fraction needs a marker-free vector",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("bracket", "-2,3"),
        ("bracket", "-2,-3v"),
        ("conductance", "-2,3v"),
        ("conductance", "-2,3", "--path", "recursion"),
        ("conductance", "--path", "recursion", "-2,3"),
        ("fraction", "-2,3"),
    ],
)
def test_vector_with_leading_negative_entry(capsys, argv):
    spelled = run_cli(capsys, *argv)
    vector = next(a for a in argv[1:] if a[0] == "-" and a[1].isdigit())
    rest = [a for a in argv[1:] if a != vector]
    dashed = run_cli(capsys, argv[0], *rest, "--", vector)
    assert spelled == dashed
    assert spelled[0] == EXIT_OK
    assert json.loads(spelled[1])["vector"] == vector


def test_leading_negative_entry_keeps_options(capsys, tmp_path):
    target = tmp_path / "b.json"
    code, out, _ = run_cli(capsys, "bracket", "-2,3", "--out", str(target))
    assert (code, out) == (EXIT_OK, "")
    assert json.loads(target.read_text())["vector"] == "-2,3"
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "-2,3", "-h"])
    assert exc.value.code == 0
    assert "usage: vtangle bracket" in capsys.readouterr().out


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reused_across_calls_matches_fresh_parsers(capsys, monkeypatch):
    # a valid call, an argparse error, then the valid call again
    calls = [
        ["conductance", "2,3,1v"],
        ["conductance", "2,3,1v", "--path", "nowhere"],
        ["conductance", "2,3,1v"],
    ]
    reused = [_outcome(capsys, argv) for argv in calls]
    assert vtangle.cli._parser() is vtangle.cli._parser()
    monkeypatch.setattr(vtangle.cli, "_parser", vtangle.cli.build_parser)
    fresh = [_outcome(capsys, argv) for argv in calls]
    assert reused == fresh
    assert reused[0] == reused[2] and reused[0][0] == EXIT_OK
    assert reused[1][0] == ("exit", 2) and "invalid choice" in reused[1][2]


def _choices(command, option):
    parser = vtangle.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(
        a.choices for a in sub.choices[command]._actions if option in a.option_strings
    )


def test_option_choices_come_from_the_tables():
    assert _choices("conductance", "--path") == tuple(vtangle.conductance.ROUTES)
    assert tuple(vtangle.conductance.ROUTES) == (
        "state-sum",
        "recursion",
        "continued-fraction",
        "closed-form",
        "classical-fraction",
    )
    assert _choices("verify", "--suite") == ("all", *vtangle.cli._SUITES)
