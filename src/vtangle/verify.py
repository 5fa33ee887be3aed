"""Equivalence, invariance, and enumeration suites with first-class findings.

Every suite emits CheckReport rows; a failed comparison always carries both
exact values, and indeterminate or non-Gaussian outcomes are findings, never
passes.  All sampling is seeded and all iteration orders are deterministic.
"""

from __future__ import annotations

from ._value import Value, setters
from .bracket import bracket_contract, bracket_vector
from .conductance import (
    DEGENERATE,
    DISAGREE,
    PATH_RECURSION,
    PATH_STATE_SUM,
    _conductance_folded,
    _track_base,
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


class CheckReport(Value):
    """One verified instance: what was checked, on what, and how it went."""

    __slots__ = ("name", "instance", "status", "lhs", "rhs", "notes")

    def __init__(self, name: str, instance: str, status: str,
                 lhs: str = "", rhs: str = "", notes: str = ""):
        _SET_NAME(self, name)
        _SET_INSTANCE(self, instance)
        _SET_STATUS(self, status)
        _SET_LHS(self, lhs)
        _SET_RHS(self, rhs)
        _SET_NOTES(self, notes)


class EnumerationRecord(Value):
    """One classified vector: its conductance, realness, and value bucket."""

    __slots__ = ("vector", "conductance", "is_real", "bucket_id", "provenance")

    def __init__(self, vector: str, conductance: GaussRational, is_real: bool,
                 bucket_id: int, provenance: str):
        _SET_VECTOR(self, vector)
        _SET_CONDUCTANCE(self, conductance)
        _SET_IS_REAL(self, is_real)
        _SET_BUCKET_ID(self, bucket_id)
        _SET_PROVENANCE(self, provenance)

    def as_dict(self) -> dict:
        return {**Value.as_dict(self), "conductance": str(self.conductance)}


_SET_NAME, _SET_INSTANCE, _SET_STATUS, _SET_LHS, _SET_RHS, _SET_NOTES = setters(CheckReport)
_SET_VECTOR, _SET_CONDUCTANCE, _SET_IS_REAL, _SET_BUCKET_ID, _SET_PROVENANCE = setters(
    EnumerationRecord
)


def _row(name: str, instance: str, ok: bool, lhs: str, rhs: str, notes: str = "") -> CheckReport:
    """The pass or fail row of one compared instance."""
    return CheckReport(name, instance, STATUS_PASS if ok else STATUS_FAIL, lhs, rhs, notes)


def _record(vector, conductance, is_real, bucket_id, provenance) -> EnumerationRecord:
    """EnumerationRecord(...) without the type call; the survey builds one
    per vector."""
    rec = object.__new__(EnumerationRecord)
    _SET_VECTOR(rec, vector)
    _SET_CONDUCTANCE(rec, conductance)
    _SET_IS_REAL(rec, is_real)
    _SET_BUCKET_ID(rec, bucket_id)
    _SET_PROVENANCE(rec, provenance)
    return rec


class Envelope(Value):
    """Enumeration bounds: vector length and twist magnitude."""

    __slots__ = ("n_max", "a_max", "include_inf", "classical_only")

    def __init__(self, n_max: int, a_max: int, include_inf: bool = True,
                 classical_only: bool = False):
        _SET_N_MAX(self, n_max)
        _SET_A_MAX(self, a_max)
        _SET_INCLUDE_INF(self, include_inf)
        _SET_CLASSICAL_ONLY(self, classical_only)


_SET_N_MAX, _SET_A_MAX, _SET_INCLUDE_INF, _SET_CLASSICAL_ONLY = setters(Envelope)


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
    and the first error, which every extension inherits.  The part of a step
    that does not read the twist count (_track_base: the divisor, the
    reciprocal on a vertical step) is computed at most once per node and
    marker and shared by the node's children, so a vector costs one
    _track_value, plus one for D when the walk extends it.
    """
    def root(entry):
        a, e = entry
        c, d = _track_start(entry)
        text = f"{'inf' if a is INF else a}{'v' if e else ''}"
        return (entry,), text, c, d, None, [None, None]

    def base(node, k, bit):
        """node's _track_base for marker bit, or the DivisorZeroError it
        raises; computed on first use and kept in the node."""
        entries, _, c, d, _, bases = node
        try:
            b = _track_base(k, bit, c, d, entries[0][0] is INF)
        except DivisorZeroError as exc:
            b = exc
        bases[bit] = b
        return b

    def child(node, k, entry, extend):
        entries, text, _, _, error, bases = node
        entries = entries + (entry,)
        a, e = entry
        text = f"{text},{a}v" if e else f"{text},{a}"
        if error is not None:
            return entries, text, None, None, error, None
        b = bases[e]
        if b is None:
            b = base(node, k, e)
        if isinstance(b, DivisorZeroError):
            return entries, text, None, None, b, None
        grown = _track_value(k, a, b)
        if not extend:
            return entries, text, grown, None, None, None
        b = bases[1 - e]
        if b is None:
            b = base(node, k, 1 - e)
        flipped = None if isinstance(b, DivisorZeroError) else _track_value(k, a, b)
        return entries, text, grown, flipped, None, [None, None]

    for entries, text, c, _, error, _ in _walk(env, root, child):
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
        values, errors = conductance_paths(v)
        verdict, ordered, distinct = agree(values, errors)
        gaussian_problems = {
            p: e for p, e in errors.items() if isinstance(e, NotGaussianError)
        }
        agreed = str(values[ordered[0]].value) if ordered else ""
        lhs = rhs = ""
        if verdict == DISAGREE:
            (v1, p1), (v2, p2) = [(val, ps[0]) for val, ps in list(distinct.items())[:2]]
            status, lhs, rhs = STATUS_FAIL, f"{p1}={v1}", f"{p2}={v2}"
            notes = "routes disagree: " + "; ".join(f"{p}={values[p].value}" for p in ordered)
        elif gaussian_problems:
            status = STATUS_FINDING
            notes = "; ".join(f"{p}: {e}" for p, e in gaussian_problems.items())
        elif verdict == DEGENERATE:
            status, lhs, rhs = STATUS_INDETERMINATE, agreed, agreed
            notes = "; ".join(f"{p}: {e}" for p, e in sorted(errors.items())) + (
                f"; agreeing routes {','.join(ordered)}" if ordered else ""
            )
        elif len(ordered) < 2:
            status, notes = STATUS_FINDING, "fewer than two routes available"
        else:
            status, lhs, rhs = STATUS_PASS, agreed, agreed
            notes = f"routes {','.join(ordered)}"
        reports.append(CheckReport("conductance-equivalence", str(v), status, lhs, rhs, notes))
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


def run_invariance_suite(seed: int = 0, count: int = 100):
    """Flype, kink-factor, virtualization, and conductance-invariance checks
    on seeded diagrams, closed by a deliberately corrupted negative control."""
    import random

    reports = []
    for i, d in enumerate(sample_diagrams(random.Random(seed), count)):
        inst = f"diagram[{i}]: {d.n_nodes} nodes, {d.n_classical} classical"
        base = bracket_contract(d)
        for kind in FLYPE_KINDS:
            sign = 1 if i % 2 == 0 else -1
            d1, d2 = flype_pair(d, kind, sign=sign if kind != "virtual" else 1)
            b1, b2 = bracket_contract(d1), bracket_contract(d2)
            reports.append(
                _row(f"flype-{kind}", inst, b1 == b2, str(b1.as_dict()), str(b2.as_dict()))
            )
        kink_pos_triple = None
        for sign, label in ((1, "pos"), (-1, "neg")):
            endpoint = COMPASS[(i + (0 if sign == 1 else 2)) % 4]
            got = bracket_contract(insert_kink(d, endpoint, sign))
            if sign == 1:
                kink_pos_triple = got
            want = base.scaled(_KINK_FACTOR[sign])
            reports.append(
                _row(f"kink-factor-{label}", inst, got == want, str(got.as_dict()),
                     str(want.as_dict()))
            )
        if d.classical_indices:
            idx = d.classical_indices[i % len(d.classical_indices)]
            got = bracket_contract(virtualize_crossing(d, idx))
            reports.append(
                _row("virtualization-bracket", inst, got == base, str(got.as_dict()),
                     str(base.as_dict()), f"crossing {idx}")
            )
        try:
            c_base = conductance_from_bracket(base)
            c_kinked = conductance_from_bracket(kink_pos_triple)
        except IndeterminateError as exc:
            reports.append(CheckReport("conductance-kink-invariance", inst,
                                       STATUS_INDETERMINATE, notes=str(exc)))
        else:
            reports.append(_row("conductance-kink-invariance", inst, c_base == c_kinked,
                                str(c_kinked), str(c_base)))
    reports.append(_negative_control())
    return reports


def _negative_control() -> CheckReport:
    """Harness self-test: a sign-flipped kink factor must be caught."""
    from .diagram import elementary

    d = elementary(1, 0)
    base = bracket_contract(d)
    kinked = bracket_contract(insert_kink(d, COMPASS[0], 1))
    corrupted = base.scaled(_KINK_FACTOR[-1])  # deliberately the wrong factor
    if kinked == corrupted:
        return _row("negative-control-kink", "elementary(1, 0)", False, str(kinked.as_dict()),
                    str(corrupted.as_dict()),
                    "corrupted identity was not caught; harness is broken")
    return _row("negative-control-kink", "elementary(1, 0)", True, "", "",
                "deliberately corrupted kink factor mismatched as expected")


def run_additivity_suite(seed: int = 0, count: int = 100):
    """The combined-tangle conductance identity on seeded bracket pairs.

    Pairs are drawn so both correction denominators are nonzero (finite
    conductances); whenever one side has no virtual coefficient the
    correction must vanish exactly.
    """
    import random

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
        made += 1
        try:
            lhs, rhs, corr = additivity_identity(t, s, "plus")
        except IndeterminateError as exc:
            reports.append(
                CheckReport("additivity-plus", inst, STATUS_INDETERMINATE, notes=str(exc))
            )
            continue
        ok = lhs == rhs - corr
        notes = f"correction {corr}"
        if s.h.is_zero() or t.h.is_zero():
            ok = ok and corr == GaussRational(0, 0)
            notes += "; classical side, correction must vanish"
        reports.append(_row("additivity-plus", inst, ok, str(lhs), f"{rhs} - {corr}", notes))
    return reports


def run_ratio_suite(seed: int = 0, count: int = 100):
    """C(T) = -i * C(T') * C(T'') on seeded diagrams, projectively."""
    import random

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
        reports.append(_row("ratio-identity", inst, c == rhs, str(c), str(rhs),
                            f"C(T')={c_east}, C(T'')={c_south}"))
    return reports


def _figure_family_companion(e: tuple):
    """For the entries (a^1, 0^1, c^1) return the classical companion
    (inf, -a, c)."""
    if len(e) == 3 and e[0][1] == 1 and e[1] == (0, 1) and e[2][1] == 1:
        a = e[0][0]
        if a is not INF and a != 0:
            return TangleVector(((INF, 0), (-a, 0), (e[2][0], 0)))
    return None


def enumerate_classify(env: Envelope):
    """Classify every vector in the envelope by exact conductance.

    The summary lists value collisions, real-valued vectors that carry
    virtual markers (with an explanation where one exists: the
    virtual-cancellation family or a classical vector in the same bucket),
    formula degeneracies recovered via the state sum, and any remaining
    findings.  Infinity counts as a real (classical) value.  Each value is
    the recursion's, read off one prefix-shared walk of the envelope.  Where
    the recursion is degenerate, the value is the state-sum route's: the
    vector's bracket folded through the tangle algebra in Z[i]
    (_conductance_folded).  Each bucket's value is formatted at most once.
    """
    records = []
    # The canonical triple of each value, which equal values share, keys its
    # bucket: a tuple hashes and compares without GaussRational's methods.
    buckets = {}  # value._v -> (bucket id, value, is_real, member texts)
    value_texts = []  # bucket id -> str of its value, built on first use
    real = {}  # bucket id -> (text, entries, classical) of its real vectors
    real_virtual = []
    degenerate = []
    findings = []

    def value_text(bid, value):
        out = value_texts[bid]
        if out is None:
            out = value_texts[bid] = str(value)
        return out

    for entries, text, value, exc in _track_walk(env):
        provenance = PATH_RECURSION
        if exc is not None:
            try:
                value = _conductance_folded(TangleVector(entries))
            except TangleError as exc2:
                findings.append(
                    {"vector": text, "kind": "no-value", "error": f"{exc}; {exc2}"}
                )
                continue
            provenance = PATH_STATE_SUM
        bucket = buckets.get(value._v)
        if bucket is None:
            bucket = buckets[value._v] = (len(buckets), value, value.is_real, [])
            value_texts.append(None)
        # one value object per bucket, shared by its records
        bid, value, is_real, texts = bucket
        if exc is not None:
            degenerate.append(
                {
                    "vector": text,
                    "error": str(exc),
                    "conductance": value_text(bid, value),
                    "provenance": PATH_STATE_SUM,
                }
            )
        rec = _record(text, value, is_real, bid, provenance)
        texts.append(text)
        if is_real:
            # a marker-free vector's text has no "v"
            real.setdefault(bid, []).append((text, entries, "v" not in text))
        records.append(rec)
    values = [value for _, value, _, _ in buckets.values()]
    for bid, members in real.items():
        value = values[bid]
        conductance = value_text(bid, value)
        classical_match = next((text for text, _, classical in members if classical), None)
        for text, entries, classical in members:
            if classical:
                continue
            entry = {"vector": text, "conductance": conductance}
            companion = _figure_family_companion(entries)
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
                        "vector": text,
                        "kind": "unexplained-real-virtual",
                        "conductance": conductance,
                    }
                )
            real_virtual.append(entry)
    collisions = [
        {"conductance": value_text(bid, value), "vectors": texts}
        for bid, value, _, texts in buckets.values()
        if len(texts) > 1
    ]
    collisions.sort(key=lambda c: c["conductance"])
    summary = {
        "envelope": env.as_dict(),
        "vectors": len(records),
        "buckets": len(buckets),
        "collisions": collisions,
        "real_virtual": real_virtual,
        "formula_degenerate": degenerate,
        "findings": findings,
    }
    return records, summary
