"""The conductance invariant C(T) = i * (f+h)/(g+h) evaluated at A = zeta_8.

Four independent routes compute the same Gaussian-rational (or infinite)
value: the bracket state sum, a linear two-track recursion over the vector,
a generalized continued fraction, and closed forms for vectors of length at
most three.  The classical continued fraction is kept alongside as the
consistency anchor for marker-free vectors.
"""

from __future__ import annotations

from collections.abc import Callable

from ._value import Value, setters
from .bracket import (
    BracketTriple,
    _bracket_vector_gaussian,
    bracket_contract,
    combine_triples,
)
from .cyclotomic import C_I, eval_at_zeta8
from .diagram import HORIZONTAL, PLUS, STAR, TangleDiagram, combine, elementary
from .errors import (
    DivisorZeroError,
    IndeterminateError,
    TangleError,
    UnsupportedPatternError,
    VectorRuleError,
)
from .gaussian import G_I, INFINITY, GaussRational
from .vector import INF, TangleVector

PATH_STATE_SUM = "state-sum"
PATH_RECURSION = "recursion"
PATH_FRACTION = "continued-fraction"
PATH_CLOSED = "closed-form"
PATH_CLASSICAL = "classical-fraction"


class ConductanceValue(Value):
    """A conductance with the computation route that produced it."""

    __slots__ = ("value", "provenance")

    def __init__(self, value: GaussRational, provenance: str):
        _SET_VALUE(self, value)
        _SET_PROVENANCE(self, provenance)


_SET_VALUE, _SET_PROVENANCE = setters(ConductanceValue)


_ZERO_OVER_ZERO = "both bracket combinations vanish at A = zeta_8 (0/0)"


def conductance_from_bracket(t: BracketTriple) -> GaussRational:
    """i * (f+h)/(g+h) at A = zeta_8; infinite when only the denominator
    vanishes, indeterminate when both do, loud when outside Q(i)."""
    num = eval_at_zeta8(t.f + t.h)
    den = eval_at_zeta8(t.g + t.h)
    if den.is_zero():
        if num.is_zero():
            raise IndeterminateError(_ZERO_OVER_ZERO)
        return INFINITY
    return (C_I * num / den).to_gauss()


def _conductance_folded(vec: TangleVector) -> GaussRational:
    """conductance_from_bracket(bracket_vector(vec)), from the bracket's
    values folded in Z[i] without polynomials.  The common factor zeta^N of
    f+h and g+h cancels, so C = i * n * conj(d) / |d|^2 for n = f+h and
    d = g+h, reduced once."""
    (fa, fb), (ga, gb), (ha, hb) = _bracket_vector_gaussian(vec)
    na, nb = fa + ha, fb + hb
    da, db = ga + ha, gb + hb
    norm = da * da + db * db
    if not norm:
        if na or nb:
            return INFINITY
        raise IndeterminateError(_ZERO_OVER_ZERO)
    return GaussRational.from_ints(na * db - nb * da, na * da + nb * db, norm)


def _gr(a) -> GaussRational:
    if a is INF:
        return INFINITY
    return GaussRational(a, 0)


def classical_fraction(entries, first_is_horizontal: bool = True) -> GaussRational:
    """Projective continued fraction of a marker-free vector.

    entries are plain integers, optionally INF first (anything else is a
    VectorRuleError, as in TangleVector.validate); vertical-first input
    is normalized by an INF prefix; an even length folds one extra
    reciprocal, matching the trailing trivial entry of the odd normal form.
    """
    entries = list(entries)
    if not entries:
        raise VectorRuleError("a tangle vector needs at least one entry", 1)
    for i, a in enumerate(entries):
        if a is INF:
            if i > 0 or not first_is_horizontal:
                raise VectorRuleError(
                    "inf is allowed only as the first entry of a horizontal-first vector",
                    i + 1,
                )
        elif not isinstance(a, int):
            raise VectorRuleError("twist count must be an integer or inf", i + 1)
    if not first_is_horizontal:
        entries = [INF] + entries
    v = _gr(entries[0])
    for a in entries[1:]:
        v = _gr(a) + v.invert()
    if len(entries) % 2 == 0:
        v = v.invert()
    return v


# The [inf] tangle with a virtual crossing stacked below is the single
# virtual crossing, whose conductance is i.  It replaces the inf/inf ratio
# the recursion would otherwise form on an infinite first entry.
_VC_OF_INF = GaussRational(0, 1)


def _track_start(entry):
    """(C_1, D_1) of a one-entry prefix; D_1 is None for an infinite entry,
    whose flipped value no later step reads."""
    a, e = entry
    if a is INF:
        return INFINITY, None
    return GaussRational(a, e), GaussRational(a, 1 - e)


def _track_base(k, bit, prev_c, prev_d, inf_base):
    """The part of one step of the two-track recursion that does not read
    the twist count: for entry k + 1 with marker bit after the prefix
    (prev_c, flipped value prev_d), the value _track_value adds the twist
    count to.  Entry k + 1 is horizontal when k is even; inf_base says the
    first entry is INF.

    Raises DivisorZeroError, naming entry k + 1, when the entry is marked and
    the virtual-twist divisor prev_c * i / prev_d is undefined or prev_d is
    itself degenerate (None).
    """
    if bit == 0:
        inner = prev_c
    elif k == 1 and inf_base:
        inner = _VC_OF_INF
    elif prev_d is None:
        raise DivisorZeroError(k + 1, "flipped-prefix value already degenerate")
    else:
        try:
            inner = prev_c.mul_i() / prev_d
        except IndeterminateError as exc:
            raise DivisorZeroError(k + 1, str(exc)) from exc
    return inner if k % 2 == 0 else inner.invert()


def _track_value(k, a, base):
    """The rest of the step: the conductance of the prefix extended by entry
    k + 1 with twist count a, from that entry's _track_base."""
    if k % 2 == 0:
        return base.add_int(a)
    return base.add_int(a).invert()


def _prefix_track(entries):
    """C_k for every prefix, and D_k (the prefix with its last marker
    flipped) for every prefix that a later entry extends, computed left to
    right in one pass of _track_base and _track_value.  Only entry k+1 reads
    D_k, so the loop computes no D for the last entry.

    D_k is None when its own divisor was degenerate; it is only an error if
    a later entry actually needs it (DivisorZeroError identifies the entry).
    """
    last = len(entries) - 1
    c, d = _track_start(entries[0])
    inf_base = entries[0][0] is INF
    cs, ds = [c], [d]
    for k in range(1, len(entries)):
        a, e = entries[k]
        cs.append(_track_value(k, a, _track_base(k, e, c, d, inf_base)))
        if k < last:
            try:
                d = _track_value(k, a, _track_base(k, 1 - e, c, d, inf_base))
            except DivisorZeroError:
                d = None
            ds.append(d)
        c = cs[-1]
    return cs, ds


def conductance_recursive(vec: TangleVector) -> GaussRational:
    """Two-track linear recursion over the vector entries.

    Each step needs the previous prefix conductance and the conductance of
    the previous prefix with its last marker flipped; an infinite first
    entry routes through the exact limit value C([inf] stacked on a virtual
    crossing) = i.
    """
    vec = vec.normalized()
    vec.validate()
    cs, _ = _prefix_track(vec.entries)
    return cs[-1]


def continued_fraction_C(vec: TangleVector) -> GaussRational:
    """Generalized continued fraction a_n + b_n/(a_{n-1} + b_{n-1}/(...)).

    b_k is 1 on marker-free entries; on marked entries it is -i times the
    flipped-prefix conductance (even positions) or the reciprocal of that
    (odd positions), with b_1 = i when the first entry is marked.  Prefix
    values come from the same linear pass as the recursion.
    """
    vec = vec.normalized()
    vec.validate()
    entries = vec.extended_odd().entries
    cs, ds = _prefix_track(entries)
    a0, e0 = entries[0]
    inf_base = a0 is INF
    if inf_base:
        w = INFINITY
    else:
        w = GaussRational(a0, e0)  # a_1 + b_1 with b_1 = i on a marked entry
    for k in range(1, len(entries)):
        a, e = entries[k]
        if e == 0:
            b = GaussRational(1, 0)
        elif k == 1 and inf_base:
            # Exact limit of a_2 + b_2/W_1 when the first twist count grows.
            w = _gr(a) - G_I
            continue
        else:
            d = ds[k - 1]
            if d is None:
                raise DivisorZeroError(k + 1, "flipped-prefix value already degenerate")
            neg_id = -(d.mul_i())
            b = neg_id if k % 2 == 1 else neg_id.invert()
        try:
            w = _gr(a) + b / w
        except IndeterminateError as exc:
            raise IndeterminateError(
                f"continued fraction undefined at level {k + 1}: {exc}"
            ) from exc
    return w


def _ratio(num_re, num_im, den) -> GaussRational:
    """(num_re + num_im*i)/den projectively, for integer formula pieces."""
    if den == 0:
        if num_re == 0 and num_im == 0:
            raise IndeterminateError("closed form evaluates to 0/0")
        return INFINITY
    return GaussRational.from_ints(num_re, num_im, den)


def _closed_two(a, e1, b, e2) -> GaussRational:
    if a is INF:
        if e2 == 0:
            return _ratio(1, 0, b)
        return _ratio(b, 1, b * b + 1)
    if (e1, e2) == (0, 0):
        return _ratio(a, 0, a * b + 1)
    if (e1, e2) == (1, 0):
        return _ratio(a + b + a * a * b, 1, (a * b + 1) ** 2 + b * b)
    if (e1, e2) == (0, 1):
        return _ratio(a * (a * b + 1), a * a, (a * b + 1) ** 2 + a * a)
    return _ratio(
        -a + b + a * a * b, a * a, (a * b - 1) ** 2 + a * a + b * b - 1
    )


def _closed_three_marked(a, e1, b, e2, c) -> GaussRational:
    base = _gr(c)
    if a is INF:
        if e2 == 0:
            return _ratio(1, 0, b) + base + G_I
        return _ratio(-b, b * b, b * b + 1) + base
    if (e1, e2) == (0, 0):
        return _ratio(a, 0, a * b + 1) + base + G_I
    if (e1, e2) == (1, 0):
        d = (a * b + 1) ** 2 + b * b
        return _ratio(a - b + a * a * b, (1 + a * a) * b * b, d) + base
    if (e1, e2) == (0, 1):
        d = (a * b + 1) ** 2 + a * a
        return _ratio(-a * (a * b + 1), (a * b + 1) ** 2, d) + base
    d = (a * b - 1) ** 2 + a * a + b * b - 1
    return _ratio(-(a - b + a * a * b), (1 + a * a) * b * b, d) + base


def closed_form(vec: TangleVector) -> GaussRational:
    """Direct substitution into the displayed closed forms (length <= 3).

    An infinite first entry uses the exact limit forms.  The formulas are
    total over integer entries up to projective division; a vanishing
    denominator with vanishing numerator raises IndeterminateError.
    """
    vec = vec.normalized()
    vec.validate()
    entries = vec.entries
    n = len(entries)
    if n > 3:
        raise UnsupportedPatternError(f"no closed form for length {n}")
    if n == 1:
        a, e = entries[0]
        if a is INF:
            return INFINITY
        return GaussRational(a, e)
    if n == 2:
        (a, e1), (b, e2) = entries
        return _closed_two(a, e1, b, e2)
    (a, e1), (b, e2), (c, e3) = entries
    if e3 == 0:
        return _closed_two(a, e1, b, e2) + _gr(c)
    return _closed_three_marked(a, e1, b, e2, c)


def additivity_identity(t: BracketTriple, s: BracketTriple, op: str = "plus"):
    """(lhs, rhs, correction) for the conductance of a combined tangle.

    plus: lhs = C(T+S) and lhs = rhs - correction, where rhs = C(T) + C(S)
    and correction = 2*h_T*h_S*i / ((g_T+h_T)(g_S+h_S)) at A = zeta_8.
    star: lhs = C(T*S), rhs = 1/(1/C(T) + 1/C(S)), and the correction
    2*h_T*h_S*i / ((f_T+h_T)(f_S+h_S)) satisfies 1/lhs = 1/rhs + correction.
    The correction vanishes whenever either side has no virtual coefficient.
    """
    if op not in ("plus", "star"):
        raise ValueError(f"unknown combination {op!r}")
    lhs = conductance_from_bracket(combine_triples(t, s, op))
    ct = conductance_from_bracket(t)
    cs = conductance_from_bracket(s)
    cross = eval_at_zeta8(t.h) * eval_at_zeta8(s.h) * (C_I + C_I)
    if op == "plus":
        rhs = ct + cs
        den = eval_at_zeta8(t.g + t.h) * eval_at_zeta8(s.g + s.h)
    else:
        rhs = (ct.invert() + cs.invert()).invert()
        den = eval_at_zeta8(t.f + t.h) * eval_at_zeta8(s.f + s.h)
    if den.is_zero():
        raise IndeterminateError("correction denominator vanishes at A = zeta_8")
    correction = (cross / den).to_gauss()
    return lhs, rhs, correction


def ratio_identity(d: TangleDiagram):
    """(C(T), C(T'), C(T'')) where T' and T'' append a virtual crossing to
    the east and to the south; projectively C(T) = -i * C(T') * C(T'')."""
    vc = elementary(0, 1, HORIZONTAL)
    t = bracket_contract(d)
    t_east = bracket_contract(combine(d, vc, PLUS))
    t_south = bracket_contract(combine(d, vc, STAR))
    return (
        conductance_from_bracket(t),
        conductance_from_bracket(t_east),
        conductance_from_bracket(t_south),
    )


class Route(Value):
    """One conductance route.  run(vec, triple) gives its value, where
    triple is the vector's bracket or None (only the state sum reads it, and
    without one folds the bracket's values at A = zeta_8); applies(vec) says
    whether conductance_paths runs it on a normalized vector."""

    __slots__ = ("run", "applies")

    def __init__(self, run: Callable, applies: Callable = lambda vec: True):
        _SET_RUN(self, run)
        _SET_APPLIES(self, applies)


_SET_RUN, _SET_APPLIES = setters(Route)


# The routes in report order.  The entries call the route functions by their
# module-level names, so a wrapper bound to such a name sees every call.
ROUTES = {
    PATH_STATE_SUM: Route(
        lambda vec, triple: _conductance_folded(vec)
        if triple is None
        else conductance_from_bracket(triple)
    ),
    PATH_RECURSION: Route(lambda vec, triple: conductance_recursive(vec)),
    PATH_FRACTION: Route(lambda vec, triple: continued_fraction_C(vec)),
    PATH_CLOSED: Route(
        lambda vec, triple: closed_form(vec), lambda vec: len(vec.entries) <= 3
    ),
    PATH_CLASSICAL: Route(
        lambda vec, triple: classical_fraction([a for a, _ in vec.entries]),
        lambda vec: vec.classical,
    ),
}


def conductance_paths(vec: TangleVector, triple: BracketTriple | None = None):
    """Every applicable route for one vector, in ROUTES order.

    The state-sum route evaluates the vector's bracket, folded through the
    tangle algebra; a caller that already holds it passes it as triple, and
    without one the fold runs on the bracket's values at A = zeta_8.
    Returns (values, errors): values maps a provenance label to a
    ConductanceValue, errors maps a label to the TangleError it raised.
    """
    vec = vec.normalized()
    vec.validate()
    values = {}
    errors = {}
    for label, route in ROUTES.items():
        if not route.applies(vec):
            continue
        try:
            values[label] = ConductanceValue(route.run(vec, triple), label)
        except TangleError as exc:
            errors[label] = exc
    return values, errors


DISAGREE = "disagree"
DEGENERATE = "degenerate"
UNANIMOUS = "unanimous"


def agree(values, errors):
    """The verdict on one vector's routes, from conductance_paths' result.

    Returns (verdict, labels, distinct): labels are the routes that gave a
    value, in ROUTES order, and distinct maps each distinct value to the
    labels that gave it, first value first.  The verdict is DISAGREE when
    two values differ, else DEGENERATE when a route raised, else UNANIMOUS.
    """
    distinct = {}
    for label, cv in values.items():
        distinct.setdefault(cv.value, []).append(label)
    if len(distinct) > 1:
        verdict = DISAGREE
    elif errors:
        verdict = DEGENERATE
    else:
        verdict = UNANIMOUS
    return verdict, list(values), distinct
