"""Verification suites: statuses, determinism, honest findings."""

from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import product

import pytest

import vtangle.conductance
import vtangle.verify
from vtangle.conductance import conductance_recursive
from vtangle.errors import TangleError
from vtangle.vector import INF, TangleVector, parse_vector
from vtangle.verify import (
    STATUS_FAIL,
    STATUS_INDETERMINATE,
    STATUS_PASS,
    EnumerationRecord,
    Envelope,
    enumerate_classify,
    iter_vectors,
    run_additivity_suite,
    run_equivalence_suite,
    run_invariance_suite,
    run_ratio_suite,
    sample_diagrams,
    sample_vectors,
)

SMALL = Envelope(2, 2)


def test_iter_vectors_deterministic_and_valid():
    vs1 = [str(v) for v in iter_vectors(SMALL)]
    vs2 = [str(v) for v in iter_vectors(SMALL)]
    assert vs1 == vs2
    assert len(vs1) == len(set(vs1))
    assert "0" in vs1 and "inf" in vs1 and "2,1v" in vs1
    assert "1,0" not in vs1  # interior rule via the extended form
    for v in iter_vectors(SMALL):
        v.validate()


def test_iter_vectors_flags():
    classical = list(iter_vectors(Envelope(2, 2, classical_only=True)))
    assert all(v.classical for v in classical)
    no_inf = list(iter_vectors(Envelope(2, 2, include_inf=False)))
    assert all(v.entries[0][0] is not INF for v in no_inf)


def _brute_force_vectors(env):
    """iter_vectors' contract spelled out: every entry combination of each
    length, in product order, kept when validate() accepts it."""
    eps = (0,) if env.classical_only else (0, 1)
    ints = [(a, e) for a in range(-env.a_max, env.a_max + 1) for e in eps]
    firsts = ints + ([(INF, 0)] if env.include_inf else [])
    out = []
    for n in range(1, env.n_max + 1):
        for combo in product(firsts, *[ints] * (n - 1)):
            v = TangleVector(combo)
            try:
                v.validate()
            except TangleError:
                continue
            out.append(v)
    return out


def test_iter_vectors_equals_brute_force():
    for n_max in range(1, 5):
        for a_max in range(4):
            for include_inf, classical_only in product((True, False), repeat=2):
                env = Envelope(n_max, a_max, include_inf, classical_only)
                want = _brute_force_vectors(env)
                assert list(iter_vectors(env)) == want, env


def test_track_walk_equals_recursion():
    count = 0
    for entries, text, value, error in vtangle.verify._track_walk(Envelope(4, 3)):
        v = TangleVector(entries)
        assert text == str(v)
        try:
            want = conductance_recursive(v)
        except TangleError as exc:
            assert (value, str(error)) == (None, str(exc)), text
        else:
            assert (value, error) == (want, None), text
        count += 1
    assert count == 35895


def test_enumerate_pays_about_one_recursion_step_per_vector(monkeypatch):
    calls = []
    step = vtangle.conductance._track_value

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(vtangle.conductance, "_track_value", counting)
    monkeypatch.setattr(vtangle.verify, "_track_value", counting)
    records, summary = enumerate_classify(Envelope(3, 5))
    vectors = summary["vectors"] + len(summary["findings"])
    assert len(calls) <= 1.25 * vectors, len(calls) / vectors


def test_walk_computes_one_base_per_node_and_marker(monkeypatch):
    # The walk's nodes start with their prefix's entries; the base of a
    # step is the part that the children of one node share.
    parent = []
    bases = Counter()
    walk = vtangle.verify._walk
    track_base = vtangle.verify._track_base

    def tracking_walk(env, root, child):
        def tracked(node, k, entry, extend):
            parent[:] = [node[0]]
            return child(node, k, entry, extend)

        return walk(env, root, tracked)

    def counting(k, bit, *rest):
        bases[parent[0], bit] += 1
        return track_base(k, bit, *rest)

    monkeypatch.setattr(vtangle.verify, "_walk", tracking_walk)
    monkeypatch.setattr(vtangle.verify, "_track_base", counting)
    enumerate_classify(Envelope(3, 5))
    assert max(bases.values()) == 1
    assert {len(prefix) for prefix, _ in bases} == {1, 2}
    assert {bit for _, bit in bases} == {0, 1}


def test_equivalence_suite_statuses():
    reports = run_equivalence_suite(SMALL)
    assert reports, "suite must produce reports"
    statuses = {r.status for r in reports}
    assert STATUS_FAIL not in statuses
    passes = [r for r in reports if r.status == STATUS_PASS]
    assert passes
    # every pass compared at least two routes and carries the agreed value
    for r in passes[:50]:
        assert r.lhs == r.rhs != ""
    for r in reports:
        if r.status == STATUS_INDETERMINATE:
            assert r.notes  # the degenerate route is named


def test_sampling_is_seeded():
    import random

    a = [str(v) for v in sample_vectors(random.Random(5), 20)]
    b = [str(v) for v in sample_vectors(random.Random(5), 20)]
    assert a == b
    d1 = sample_diagrams(random.Random(5), 10)
    d2 = sample_diagrams(random.Random(5), 10)
    assert [d.signs for d in d1] == [d.signs for d in d2]


def test_invariance_suite_green_with_negative_control():
    reports = run_invariance_suite(seed=3, count=25)
    fails = [r for r in reports if r.status == STATUS_FAIL]
    assert not fails
    control = [r for r in reports if r.name == "negative-control-kink"]
    assert len(control) == 1
    assert control[0].status == STATUS_PASS
    assert "corrupted" in control[0].notes


def test_additivity_and_ratio_suites():
    for reports in (
        run_additivity_suite(seed=1, count=30),
        run_ratio_suite(seed=1, count=30),
    ):
        assert reports
        assert all(r.status != STATUS_FAIL for r in reports)
        assert any(r.status == STATUS_PASS for r in reports)


def test_enumerate_classify_buckets_and_explanations():
    records, summary = enumerate_classify(SMALL)
    assert summary["vectors"] == len(records)
    assert summary["buckets"] <= len(records)
    # bucket ids are dense and shared exactly by equal conductances
    by_bucket = {}
    for r in records:
        by_bucket.setdefault(r.bucket_id, set()).add(str(r.conductance))
    assert all(len(vals) == 1 for vals in by_bucket.values())
    assert sorted(by_bucket) == list(range(len(by_bucket)))
    # every real-valued virtual vector must carry an explanation
    assert summary["findings"] == []
    for entry in summary["real_virtual"]:
        assert entry["explanation"], entry
    # collisions list only buckets with two or more members
    for coll in summary["collisions"]:
        assert len(coll["vectors"]) >= 2


def test_enumerate_recovers_degenerate_family():
    records, summary = enumerate_classify(Envelope(3, 1))
    degen = {d["vector"]: d for d in summary["formula_degenerate"]}
    assert "0,1,1v" in degen
    assert degen["0,1,1v"]["provenance"] == "state-sum"
    # the recovered value is c + i
    rec = next(r for r in records if r.vector == "0,1,1v")
    assert str(rec.conductance) == "1/1 + 1/1*i"
    assert rec.provenance == "state-sum"


def test_survey_records_are_plain_frozen_records():
    records, _ = enumerate_classify(SMALL)
    for rec in records[:50]:
        same = EnumerationRecord(
            rec.vector, rec.conductance, rec.is_real, rec.bucket_id, rec.provenance
        )
        assert rec == same and hash(rec) == hash(same)
        assert rec.as_dict() == same.as_dict()
    with pytest.raises(FrozenInstanceError):
        records[0].bucket_id = 1


def test_figure_family_explanation_present():
    _, summary = enumerate_classify(Envelope(3, 2))
    figure_rows = [
        e
        for e in summary["real_virtual"]
        if e["vector"] == "1v,0v,1v"
    ]
    assert figure_rows
    assert "inf" in figure_rows[0]["explanation"]


def test_reports_serialize():
    r = run_equivalence_suite(Envelope(1, 1))[0]
    d = r.as_dict()
    assert set(d) == {"name", "instance", "status", "lhs", "rhs", "notes"}
