"""Equivalence, invariance, and enumeration suites with first-class findings.

Every suite emits CheckReport rows; a failed comparison always carries both
exact values, and indeterminate or non-Gaussian outcomes are findings, never
passes.  All sampling is seeded and all iteration orders are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bracket import bracket_contract, bracket_vector
from .conductance import (
    DEGENERATE,
    DISAGREE,
    PATH_RECURSION,
    PATH_STATE_SUM,
    _track_start,
    _track_value,
    additivity_identity,
    agree,
    conductance_from_bracket,
    conductance_paths,
    conductance_recursive,
    ratio_identity,
)
from .diagram import (
    COMPASS,
    FLYPE_KINDS,
    TangleDiagram,
    build_basic,
    flype_pair,
    insert_kink,
    virtualize_crossing,
)
from .errors import DivisorZeroError, IndeterminateError, NotGaussianError, TangleError
from .gaussian import G_I, GaussRational
from .laurent import LaurentPoly
from .vector import INF, TangleVector

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INDETERMINATE = "indeterminate"
STATUS_FINDING = "finding"


@dataclass(frozen=True)
class CheckReport:
    """One verified instance: what was checked, on what, and how it went."""

    name: str
    instance: str
    status: str
    lhs: str = field(default="")
    rhs: str = field(default="")
    notes: str = field(default="")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instance": self.instance,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class EnumerationRecord:
    """One classified vector: its conductance, realness, and value bucket."""

    vector: str
    conductance: GaussRational
    is_real: bool
    bucket_id: int
    provenance: str

    def as_dict(self) -> dict:
        return {
            "vector": self.vector,
            "conductance": str(self.conductance),
            "is_real": self.is_real,
            "bucket_id": self.bucket_id,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class Envelope:
    """Enumeration bounds: vector length and twist magnitude."""

    n_max: int
    a_max: int
    include_inf: bool = field(default=True)
    classical_only: bool = field(default=False)

    def as_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "a_max": self.a_max,
            "include_inf": self.include_inf,
            "classical_only": self.classical_only,
        }


def _walk(env: Envelope, root, child):
    """Expand the envelope's vectors one length at a time, in iter_vectors'
    order, and yield the node of every valid vector.

    root(entry) makes the node of a one-entry prefix; child(node, k, entry,
    extend) makes the node of node's prefix followed by entry at index k,
    where extend says whether the walk will extend that child in turn.  Only
    the prefixes of the next level are kept.  A (0, 0) entry past position 0
    is interior in every longer vector, so it ends an odd-length vector and
    is pruned at even lengths; a prefix with one never extends.
    """
    eps_options = (0,) if env.classical_only else (0, 1)
    ints = [
        (a, e) for a in range(-env.a_max, env.a_max + 1) for e in eps_options
    ]
    firsts = list(ints) + ([(INF, 0)] if env.include_inf else [])
    level = [root(entry) for entry in firsts]
    yield from level
    for k in range(1, env.n_max):
        extend = k + 1 < env.n_max
        odd = k % 2 == 0
        kept = []
        for node in level:
            for entry in ints:
                if entry == (0, 0):
                    if odd:
                        yield child(node, k, entry, False)
                    continue
                grown = child(node, k, entry, extend)
                yield grown
                if extend:
                    kept.append(grown)
        level = kept


def iter_vectors(env: Envelope):
    """All valid vectors in the envelope, in a fixed deterministic order:
    by length, then lexicographically by entry, a from -a_max to a_max with
    the unmarked entry first and INF last among first entries."""
    for entries in _walk(
        env, lambda entry: (entry,), lambda node, k, entry, extend: node + (entry,)
    ):
        yield TangleVector(entries)


def _track_walk(env: Envelope):
    """(entries, text, C, error) for every vector of iter_vectors(env), where
    C is conductance_recursive's value and error what it raises instead.

    Each node carries its prefix's C and flipped value D from _track_value,
    and the first error, which every extension inherits; a vector costs one
    recursion step, plus one for D when the walk extends it.
    """
    def root(entry):
        a, e = entry
        c, d = _track_start(entry)
        return (entry,), f"{'inf' if a is INF else a}{'v' if e else ''}", c, d, None

    def child(node, k, entry, extend):
        entries, text, c, d, error = node
        entries = entries + (entry,)
        a, e = entry
        text = f"{text},{a}v" if e else f"{text},{a}"
        if error is not None:
            return entries, text, None, None, error
        inf_base = entries[0][0] is INF
        try:
            grown = _track_value(k, a, e, c, d, inf_base)
        except TangleError as exc:
            return entries, text, None, None, exc
        flipped = None
        if extend:
            try:
                flipped = _track_value(k, a, 1 - e, c, d, inf_base)
            except DivisorZeroError:
                pass
        return entries, text, grown, flipped, None

    for entries, text, c, _, error in _walk(env, root, child):
        yield entries, text, c, error


def run_equivalence_suite(env: Envelope):
    """Cross-check every conductance route on every vector in the envelope.

    pass: every route that produced a value agreed (at least two routes).
    fail: two routes disagree; both exact values are reported.
    indeterminate: a route hit a degenerate divisor; the agreeing value from
    the remaining routes is kept in the notes.  finding: a non-Gaussian
    value or a route set too small to compare.
    """
    reports = []
    for v in iter_vectors(env):
        inst = str(v)
        values, errors = conductance_paths(v)
        verdict, ordered, distinct = agree(values, errors)
        gaussian_problems = {
            p: e for p, e in errors.items() if isinstance(e, NotGaussianError)
        }
        if verdict == DISAGREE:
            (v1, p1), (v2, p2) = [(val, ps[0]) for val, ps in list(distinct.items())[:2]]
            reports.append(
                CheckReport(
                    "conductance-equivalence",
                    inst,
                    STATUS_FAIL,
                    f"{p1}={v1}",
                    f"{p2}={v2}",
                    "routes disagree: "
                    + "; ".join(f"{p}={values[p].value}" for p in ordered),
                )
            )
        elif gaussian_problems:
            reports.append(
                CheckReport(
                    "conductance-equivalence",
                    inst,
                    STATUS_FINDING,
                    notes="; ".join(f"{p}: {e}" for p, e in gaussian_problems.items()),
                )
            )
        elif verdict == DEGENERATE:
            agreed = str(values[ordered[0]].value) if ordered else ""
            reports.append(
                CheckReport(
                    "conductance-equivalence",
                    inst,
                    STATUS_INDETERMINATE,
                    lhs=agreed,
                    rhs=agreed,
                    notes="; ".join(f"{p}: {e}" for p, e in sorted(errors.items()))
                    + (f"; agreeing routes {','.join(ordered)}" if ordered else ""),
                )
            )
        elif len(ordered) < 2:
            reports.append(
                CheckReport(
                    "conductance-equivalence",
                    inst,
                    STATUS_FINDING,
                    notes="fewer than two routes available",
                )
            )
        else:
            val = str(values[ordered[0]].value)
            reports.append(
                CheckReport(
                    "conductance-equivalence",
                    inst,
                    STATUS_PASS,
                    val,
                    val,
                    f"routes {','.join(ordered)}",
                )
            )
    return reports


def sample_vectors(rng: random.Random, count: int, n_max: int = 3, a_max: int = 3):
    """Deterministic stream of valid random vectors."""
    out = []
    while len(out) < count:
        n = rng.randint(1, n_max)
        entries = []
        for i in range(n):
            a = rng.randint(-a_max, a_max)
            e = rng.randint(0, 1)
            entries.append((a, e))
        v = TangleVector(tuple(entries))
        try:
            v.validate()
        except TangleError:
            continue
        out.append(v)
    return out


def sample_diagrams(rng: random.Random, count: int, max_classical: int = 10):
    """Seeded small diagrams: random vectors, occasionally decorated with a
    kink or a virtualized crossing to leave the basic-diagram family."""
    out = []
    while len(out) < count:
        v = sample_vectors(rng, 1, 3, 3)[0]
        if v.crossing_count > max_classical:
            continue
        d = build_basic(v)
        decoration = rng.random()
        if decoration < 0.25 and d.n_classical < max_classical:
            d = insert_kink(d, rng.choice(COMPASS), rng.choice((1, -1)))
        elif decoration < 0.5 and d.classical_indices:
            d = virtualize_crossing(d, rng.choice(d.classical_indices))
        out.append(d)
    return out


_KINK_FACTOR = {
    1: LaurentPoly({3: -1}),
    -1: LaurentPoly({-3: -1}),
}


def _triple_eq(t, s) -> bool:
    return t.f == s.f and t.g == s.g and t.h == s.h


def run_invariance_suite(samples=None, seed: int = 0, count: int = 100,
                         max_classical: int = 10):
    """Flype, kink-factor, virtualization, and conductance-invariance checks
    on seeded diagrams, closed by a deliberately corrupted negative control."""
    if samples is None:
        samples = sample_diagrams(random.Random(seed), count, max_classical)
    reports = []
    for i, d in enumerate(samples):
        inst = f"diagram[{i}]: {d.n_nodes} nodes, {d.n_classical} classical"
        base = bracket_contract(d)
        for kind in FLYPE_KINDS:
            sign = 1 if i % 2 == 0 else -1
            d1, d2 = flype_pair(d, kind, sign=sign if kind != "virtual" else 1)
            b1, b2 = bracket_contract(d1), bracket_contract(d2)
            ok = _triple_eq(b1, b2)
            reports.append(
                CheckReport(
                    f"flype-{kind}",
                    inst,
                    STATUS_PASS if ok else STATUS_FAIL,
                    str(b1.as_dict()),
                    str(b2.as_dict()),
                )
            )
        kink_pos_triple = None
        for sign, label in ((1, "pos"), (-1, "neg")):
            endpoint = COMPASS[(i + (0 if sign == 1 else 2)) % 4]
            got = bracket_contract(insert_kink(d, endpoint, sign))
            if sign == 1:
                kink_pos_triple = got
            want = base.scaled(_KINK_FACTOR[sign])
            ok = _triple_eq(got, want)
            reports.append(
                CheckReport(
                    f"kink-factor-{label}",
                    inst,
                    STATUS_PASS if ok else STATUS_FAIL,
                    str(got.as_dict()),
                    str(want.as_dict()),
                )
            )
        if d.classical_indices:
            idx = d.classical_indices[i % len(d.classical_indices)]
            got = bracket_contract(virtualize_crossing(d, idx))
            ok = _triple_eq(got, base)
            reports.append(
                CheckReport(
                    "virtualization-bracket",
                    inst,
                    STATUS_PASS if ok else STATUS_FAIL,
                    str(got.as_dict()),
                    str(base.as_dict()),
                    f"crossing {idx}",
                )
            )
        try:
            c_base = conductance_from_bracket(base)
            c_kinked = conductance_from_bracket(kink_pos_triple)
            ok = c_base == c_kinked
            reports.append(
                CheckReport(
                    "conductance-kink-invariance",
                    inst,
                    STATUS_PASS if ok else STATUS_FAIL,
                    str(c_kinked),
                    str(c_base),
                )
            )
        except IndeterminateError as exc:
            reports.append(
                CheckReport(
                    "conductance-kink-invariance",
                    inst,
                    STATUS_INDETERMINATE,
                    notes=str(exc),
                )
            )
    reports.append(_negative_control())
    return reports


def _negative_control() -> CheckReport:
    """Harness self-test: a sign-flipped kink factor must be caught."""
    from .diagram import elementary

    d = elementary(1, 0)
    base = bracket_contract(d)
    kinked = bracket_contract(insert_kink(d, COMPASS[0], 1))
    corrupted = base.scaled(_KINK_FACTOR[-1])  # deliberately the wrong factor
    if _triple_eq(kinked, corrupted):
        return CheckReport(
            "negative-control-kink",
            "elementary(1, 0)",
            STATUS_FAIL,
            str(kinked.as_dict()),
            str(corrupted.as_dict()),
            "corrupted identity was not caught; harness is broken",
        )
    return CheckReport(
        "negative-control-kink",
        "elementary(1, 0)",
        STATUS_PASS,
        notes="deliberately corrupted kink factor mismatched as expected",
    )


def run_additivity_suite(seed: int = 0, count: int = 100):
    """The combined-tangle conductance identity on seeded bracket pairs.

    Pairs are drawn so both correction denominators are nonzero (finite
    conductances); whenever one side has no virtual coefficient the
    correction must vanish exactly.
    """
    rng = random.Random(seed)
    reports = []
    made = 0
    while made < count:
        vt, vs = sample_vectors(rng, 2, 2, 2)
        if made % 3 == 0:
            vs = TangleVector(tuple((a, 0) for a, _ in vs.entries))  # classical side
        try:
            vs.validate()
        except TangleError:
            continue
        t = bracket_vector(vt)
        s = bracket_vector(vs)
        inst = f"{vt} (+) {vs}"
        try:
            lhs, rhs, corr = additivity_identity(t, s, "plus")
        except IndeterminateError as exc:
            reports.append(
                CheckReport("additivity-plus", inst, STATUS_INDETERMINATE, notes=str(exc))
            )
            made += 1
            continue
        ok = lhs == rhs - corr
        notes = f"correction {corr}"
        if s.h.is_zero() or t.h.is_zero():
            ok = ok and corr == GaussRational(0, 0)
            notes += "; classical side, correction must vanish"
        reports.append(
            CheckReport(
                "additivity-plus",
                inst,
                STATUS_PASS if ok else STATUS_FAIL,
                str(lhs),
                f"{rhs} - {corr}",
                notes,
            )
        )
        made += 1
    return reports


def run_ratio_suite(seed: int = 0, count: int = 100):
    """C(T) = -i * C(T') * C(T'') on seeded diagrams, projectively."""
    rng = random.Random(seed)
    diagrams = sample_diagrams(rng, count, 8)
    reports = []
    for i, d in enumerate(diagrams):
        inst = f"diagram[{i}]: {d.n_nodes} nodes"
        try:
            c, c_east, c_south = ratio_identity(d)
        except IndeterminateError as exc:
            reports.append(
                CheckReport("ratio-identity", inst, STATUS_INDETERMINATE, notes=str(exc))
            )
            continue
        try:
            rhs = -(G_I * c_east * c_south)
        except IndeterminateError as exc:
            reports.append(
                CheckReport(
                    "ratio-identity",
                    inst,
                    STATUS_INDETERMINATE,
                    lhs=str(c),
                    notes=f"projective product undefined: {exc}",
                )
            )
            continue
        reports.append(
            CheckReport(
                "ratio-identity",
                inst,
                STATUS_PASS if c == rhs else STATUS_FAIL,
                str(c),
                str(rhs),
                f"C(T')={c_east}, C(T'')={c_south}",
            )
        )
    return reports


def _figure_family_companion(v: TangleVector):
    """For (a^1, 0^1, c^1) return the classical companion (inf, -a, c)."""
    e = v.entries
    if len(e) == 3 and e[0][1] == 1 and e[1] == (0, 1) and e[2][1] == 1:
        a = e[0][0]
        if a is not INF and a != 0:
            return TangleVector(((INF, 0), (-a, 0), (e[2][0], 0)))
    return None


def enumerate_classify(env: Envelope, sink=None):
    """Classify every vector in the envelope by exact conductance.

    Records stream to sink as they are produced.  The summary lists value
    collisions, real-valued vectors that carry virtual markers (with an
    explanation where one exists: the virtual-cancellation family or a
    classical vector in the same bucket), formula degeneracies recovered via
    the state sum, and any remaining findings.  Infinity counts as a real
    (classical) value.  Each value is the recursion's, read off one
    prefix-shared walk of the envelope.
    """
    records = []
    bucket_of = {}
    values = []
    members = []
    real = {}
    real_virtual = []
    degenerate = []
    findings = []
    for entries, text, value, exc in _track_walk(env):
        provenance = PATH_RECURSION
        if exc is not None:
            try:
                value = conductance_from_bracket(bracket_vector(TangleVector(entries)))
                provenance = PATH_STATE_SUM
                degenerate.append(
                    {
                        "vector": text,
                        "error": str(exc),
                        "conductance": str(value),
                        "provenance": PATH_STATE_SUM,
                    }
                )
            except TangleError as exc2:
                findings.append(
                    {"vector": text, "kind": "no-value", "error": f"{exc}; {exc2}"}
                )
                continue
        bid = bucket_of.get(value)
        if bid is None:
            bid = bucket_of[value] = len(members)
            values.append(value)
            members.append([])
        value = values[bid]  # one value object per bucket, shared by its records
        rec = EnumerationRecord(text, value, value.is_real, bid, provenance)
        members[bid].append(text)
        if rec.is_real:
            real.setdefault(bid, []).append(TangleVector(entries))
        records.append(rec)
        if sink is not None:
            sink(rec)
    for bid, vs in real.items():
        value = values[bid]
        classical_match = next((str(v) for v in vs if v.classical), None)
        for v in vs:
            if v.classical:
                continue
            entry = {"vector": str(v), "conductance": str(value)}
            companion = _figure_family_companion(v)
            if companion is not None and conductance_recursive(companion) == value:
                entry["explanation"] = (
                    f"virtual-cancellation family: equals C({companion})"
                )
            elif classical_match is not None:
                entry["explanation"] = (
                    f"same conductance as classical {classical_match}"
                )
            else:
                entry["explanation"] = ""
                findings.append(
                    {
                        "vector": str(v),
                        "kind": "unexplained-real-virtual",
                        "conductance": str(value),
                    }
                )
            real_virtual.append(entry)
    collisions = [
        {"conductance": str(value), "vectors": texts}
        for value, texts in zip(values, members)
        if len(texts) > 1
    ]
    collisions.sort(key=lambda c: c["conductance"])
    summary = {
        "envelope": env.as_dict(),
        "vectors": len(records),
        "buckets": len(members),
        "collisions": collisions,
        "real_virtual": real_virtual,
        "formula_degenerate": degenerate,
        "findings": findings,
    }
    return records, summary
