"""Kauffman bracket of a tangle diagram as a three-coefficient decomposition.

Every smoothing of a 4-endpoint diagram pairs the boundary as one of three
pictures: H (NW-NE / SW-SE, the trivial horizontal tangle), V (NW-SW / NE-SE,
the trivial vertical tangle), or X (NW-SE / NE-SW, the single virtual
crossing).  The bracket is f*<V-picture> + g*<H-picture> + h*<X-picture>;
the state sum resolves classical crossings only, with weight A per
A-smoothing, A^-1 per B-smoothing, and one loop factor -A^2 - A^-2 per
closed state loop.
"""

from __future__ import annotations

from functools import lru_cache

from ._value import Value, setters
from .cyclotomic import ZETA, Cyc8
from .diagram import (
    COMPASS,
    HORIZONTAL,
    NE,
    NW,
    PLUS,
    SE,
    SW,
    VERTICAL,
    VIRTUAL,
    TangleDiagram,
    fold_basic,
)
from .errors import NotGaussianError
from .laurent import LOOP_FACTOR, ONE, ZERO, LaurentPoly
from .vector import INF, TangleVector

PAIRING_H = "H"
PAIRING_V = "V"
PAIRING_X = "X"


class BracketTriple(Value):
    """Coefficients of the vertical, horizontal, and virtual pictures."""

    __slots__ = ("f", "g", "h")

    def __init__(self, f: LaurentPoly, g: LaurentPoly, h: LaurentPoly):
        _SET_F(self, f)
        _SET_G(self, g)
        _SET_H(self, h)

    def scaled(self, p: LaurentPoly) -> "BracketTriple":
        return BracketTriple(self.f * p, self.g * p, self.h * p)

    def as_dict(self) -> dict:
        return {"f": str(self.f), "g": str(self.g), "h": str(self.h)}


class StateResolution(Value):
    """One state of the sum: its boundary pairing, loop count, and weight.

    Public, with resolve_state, because it is the one way to look at a
    single smoothing of the oracle: the state sum adds up 2^N of these and
    reports only the total, so a wrong pairing or loop count in one state
    can otherwise only be seen through a wrong triple.
    """

    __slots__ = ("pairing", "loops", "weight")

    def __init__(self, pairing: str, loops: int, weight: LaurentPoly):
        _SET_PAIRING(self, pairing)
        _SET_LOOPS(self, loops)
        _SET_WEIGHT(self, weight)


_SET_F, _SET_G, _SET_H = setters(BracketTriple)
_SET_PAIRING, _SET_LOOPS, _SET_WEIGHT = setters(StateResolution)


@lru_cache(maxsize=None)
def _loop_power(k: int) -> LaurentPoly:
    """LOOP_FACTOR ** k: the weight of k closed loops, computed once per k."""
    return LOOP_FACTOR ** k


class _Compiled:
    """Flat-array form of a diagram for fast per-state resolution.

    Ports are numbered 4*node + slot; the four boundary endpoints sit after
    all node ports.  partner is the diagram's link, which follows arcs;
    internal follows the smoothing.
    """

    __slots__ = ("partner", "template", "classical", "signs", "free_loops", "bb")

    def __init__(self, d: TangleDiagram):
        self.bb = 4 * d.n_nodes
        template = [-1] * self.bb
        classical = []
        for j, s in enumerate(d.signs):
            base = 4 * j
            if s == VIRTUAL:
                template[base + NW] = base + SE
                template[base + SE] = base + NW
                template[base + NE] = base + SW
                template[base + SW] = base + NE
            else:
                classical.append(j)
        self.partner = d.link
        self.template = template
        self.classical = classical
        self.signs = d.signs
        self.free_loops = d.free_loops

    def resolve(self, bits: int):
        """Boundary pairing and loop count for one choice vector.

        Bit j = 0 resolves classical crossing j (in node order) with its
        A-smoothing, bit 1 with its B-smoothing.
        """
        internal = self.template.copy()
        for j, node in enumerate(self.classical):
            base = 4 * node
            joins_north_south = (self.signs[node] > 0) == ((bits >> j) & 1 == 0)
            if joins_north_south:
                internal[base + NW] = base + NE
                internal[base + NE] = base + NW
                internal[base + SW] = base + SE
                internal[base + SE] = base + SW
            else:
                internal[base + NW] = base + SW
                internal[base + SW] = base + NW
                internal[base + NE] = base + SE
                internal[base + SE] = base + NE
        partner = self.partner
        bb = self.bb
        visited = bytearray(bb)
        ends = {}
        for c in (NW, NE, SE, SW):
            if c in ends:
                continue
            cur = partner[bb + c]
            while cur < bb:
                visited[cur] = 1
                nxt = internal[cur]
                visited[nxt] = 1
                cur = partner[nxt]
            other = cur - bb
            ends[c] = other
            ends[other] = c
        if ends[NW] == NE:
            pairing = PAIRING_H
        elif ends[NW] == SW:
            pairing = PAIRING_V
        else:
            pairing = PAIRING_X
        loops = self.free_loops
        for p in range(bb):
            if not visited[p]:
                loops += 1
                cur = p
                while not visited[cur]:
                    visited[cur] = 1
                    nxt = internal[cur]
                    visited[nxt] = 1
                    cur = partner[nxt]
        return pairing, loops


def resolve_state(d: TangleDiagram, choices) -> StateResolution:
    """Resolve one explicit choice vector (one bit per classical crossing).

    It stays public beside the private _Compiled.resolve, which bracket()
    runs over every state, because it checks its input (one choice in
    {0, 1} per classical crossing, ValueError otherwise) and names the
    result, so a smoothing drawn by hand, such as the paper's single and
    marked double crossings, can be checked against the oracle's.
    """
    comp = _Compiled(d)
    if len(choices) != len(comp.classical):
        raise ValueError(
            f"need {len(comp.classical)} smoothing choices, got {len(choices)}"
        )
    bits = 0
    for j, c in enumerate(choices):
        if c not in (0, 1):
            raise ValueError("smoothing choices are 0 (A) or 1 (B)")
        bits |= c << j
    pairing, loops = comp.resolve(bits)
    n_b = sum(choices)
    weight = LaurentPoly.monomial(len(choices) - 2 * n_b)
    return StateResolution(pairing, loops, weight)


def bracket(d: TangleDiagram) -> BracketTriple:
    """Exhaustive state sum over all 2^N smoothings of classical crossings.

    This is the oracle the faster engines are tested against; its time
    doubles with every classical crossing and it has no cap, so large
    diagrams should use bracket_contract (vectors: bracket_vector).

    The per-state contributions commute, so any enumeration order gives the
    same triple; this one runs the choice vectors in numeric order.
    """
    comp = _Compiled(d)
    ncl = len(comp.classical)
    acc = {PAIRING_H: {}, PAIRING_V: {}, PAIRING_X: {}}
    for bits in range(1 << ncl):
        pairing, loops = comp.resolve(bits)
        w = ncl - 2 * bits.bit_count()
        dest = acc[pairing]
        for e, c in _loop_power(loops).items():
            k = e + w
            v = dest.get(k, 0) + c
            if v:
                dest[k] = v
            else:
                del dest[k]
    return BracketTriple(
        LaurentPoly(acc[PAIRING_V]),
        LaurentPoly(acc[PAIRING_H]),
        LaurentPoly(acc[PAIRING_X]),
    )


# Slot pairings of a node.  A +1 crossing's A-smoothing joins NW-NE and
# SW-SE (_JOIN_NS), its B-smoothing NW-SW and NE-SE (_JOIN_EW); a -1 crossing
# swaps the two.  A virtual crossing's two strands run NW-SE and NE-SW
# (_THROUGH).
_JOIN_NS = (NE, NW, SW, SE)
_JOIN_EW = (SW, SE, NE, NW)
_THROUGH = ((NW, SE), (NE, SW))
# bracket_contract pays every classical node's A^-1 up front, so the A- and
# B-smoothing weigh A^2 and 1 (exponent shifts 2 and 0), in that order.
_SMOOTHINGS = {
    1: ((_JOIN_NS, 2), (_JOIN_EW, 0)),
    -1: ((_JOIN_EW, 2), (_JOIN_NS, 0)),
}


@lru_cache(maxsize=None)
def _transitions(shape: tuple, sign: int) -> tuple:
    """How contracting one classical node re-pairs its strands.

    shape[s] == s when slot s of the node leads out of it (into the
    contracted part or to a node not yet contracted), and is the slot t
    when slot s leads straight back into slot t of the same node.  For the
    A- and then the B-smoothing, returns (pairs, closed, shift): the pairs
    of outward slots the smoothing joins, the loops it closes, and the
    exponent shift from _SMOOTHINGS.  There are 10 shapes: each slot leads
    out or to one other slot, which leads back to it.
    """
    out = []
    for join, shift in _SMOOTHINGS[sign]:
        seen = [False] * 4
        pairs = []
        for s in COMPASS:
            if shape[s] != s or seen[s]:
                continue
            seen[s] = True
            t = join[s]
            seen[t] = True
            while shape[t] != t:
                u = shape[t]
                seen[u] = True
                t = join[u]
                seen[t] = True
            pairs.append((s, t))
        closed = 0
        for s in COMPASS:
            if seen[s]:
                continue
            closed += 1
            t = s
            while not seen[t]:
                seen[t] = True
                u = join[t]
                seen[u] = True
                t = shape[u]
        out.append((tuple(pairs), closed, shift))
    return tuple(out)


_LEADS_OUT = (NW, NE, SE, SW)  # the shape of a node whose slots all lead out


def bracket_contract(d: TangleDiagram) -> BracketTriple:
    """The state sum of bracket(d), contracted one node at a time.

    Ports are numbered as in d.link, 4*node + slot and the boundary
    endpoints 4*n_nodes + compass, so label >> 2 is the owning node (n_nodes
    for the boundary).  Virtual crossings are fixed re-pairings, so they are
    first spliced out of a copy of the port array: link[p] is where the
    strand leaving port p first meets a classical port or the boundary, and
    strands that close through virtual crossings alone are loops.

    The frontier holds the four boundary endpoints and every open port: a
    port of a classical node not yet contracted whose link leads into the
    contracted part.  Each frontier member keeps one place; a state is the
    tuple that gives, for each place, the place its strand reaches through
    the contracted part (-1 for an empty place), and it carries a Laurent
    coefficient dict.  Contracting a node splits every state into the
    node's A- and B-smoothing and multiplies in the loops that close, so
    the cost grows with the number of distinct frontier pairings, not with
    2^N.  Nodes are taken greedily: the one with the most ports already
    reached from the boundary or the contracted part, ties to the lower
    index.
    """
    signs = d.signs
    nn = len(signs)
    bb = 4 * nn
    link = d.link
    loops = d.free_loops
    if VIRTUAL in signs:
        # splice each virtual crossing's two through-strands out of a copy
        # of the port array (the oracle resolves them in every state)
        link = list(link)
        for j, s in enumerate(signs):
            if s != VIRTUAL:
                continue
            for a, b in _THROUGH:
                x = link[4 * j + a]
                if x == 4 * j + b:
                    loops += 1
                    continue
                y = link[4 * j + b]
                link[x] = y
                link[y] = x
    # 1 + ports reached so far for a classical node not yet contracted; 0
    # once contracted, for a virtual node, which is never contracted, and
    # for the boundary (index n_nodes)
    prio = [*map(abs, signs), 0]
    # Places 0-3 of the frontier hold the four endpoints in compass order;
    # the ports they lead to come next.  pos maps an open port to its place.
    start = [0, 0, 0, 0]
    pos = {}
    width = 4
    for c, p in enumerate(link[bb:]):
        if p < bb:
            pos[p] = start[c] = width
            start.append(c)
            width += 1
            prio[p >> 2] += 1
        else:
            start[c] = p - bb
    free = []  # places of closed ports, -1 in every state, reused first
    ncl = nn - signs.count(VIRTUAL)
    first = {-ncl: 1}
    if loops:
        first = {e - ncl: c for e, c in _loop_power(loops).items()}
    # After the last node only NW's mate matters, so the last states are
    # keyed by it alone: NE, SE or SW names the picture.
    states = {tuple(start) if ncl else start[NW]: first}
    for step in range(ncl):
        last = step == ncl - 1
        n = prio.index(max(prio))
        prio[n] = 0
        base = 4 * n
        # shape0: per slot, the slot it leads back to (itself when it leads
        # out); out: per outward slot, the place its strand continues at
        # (fixed for a fresh port, set per state for an open one)
        shape0 = _LEADS_OUT
        out = [-1, -1, -1, -1]
        own = {}  # place -> slot, for the ports of n on the frontier
        fresh = []
        for s, r in enumerate(link[base:base + 4]):
            if r >> 2 == n:
                shape0 = shape0[:s] + (r & 3,) + shape0[s + 1:]
            elif not prio[r >> 2]:  # r is contracted or an endpoint
                own[pos.pop(base + s)] = s
            else:
                fresh.append((s, r))
                prio[r >> 2] += 1
        free += own
        grown = width
        for s, r in fresh:
            if free:
                out[s] = pos[r] = free.pop()
            else:
                out[s] = pos[r] = width
                width += 1
        pad = [-1] * (width - grown)
        sign = signs[n]
        acc = {}
        for m, coeff in states.items():
            shape = shape0
            for i, s in own.items():
                r = m[i]
                t = own.get(r)
                if t is None:
                    out[s] = r
                else:
                    # the strand comes back to this node at slot t
                    shape = shape[:s] + (t,) + shape[s + 1:]
            if not last:
                cut = list(m)
                for i in own:
                    cut[i] = -1
                cut += pad
            for pairs, closed, w in _transitions(shape, sign):
                if last:
                    key = m[NW]
                    for a, b in pairs:
                        if out[a] == NW:
                            key = out[b]
                        elif out[b] == NW:
                            key = out[a]
                else:
                    mate = cut.copy()
                    for a, b in pairs:
                        x = out[a]
                        y = out[b]
                        mate[x] = y
                        mate[y] = x
                    key = tuple(mate)
                if closed:
                    val = {}
                    for le, lc in _loop_power(closed).items():
                        for e, c in coeff.items():
                            k = e + le + w
                            v = val.get(k, 0) + c * lc
                            if v:
                                val[k] = v
                            else:
                                del val[k]
                elif w:
                    val = {}
                    for e, c in coeff.items():
                        val[e + w] = c
                else:
                    # the B-smoothing comes last and keeps the exponents, so
                    # it takes over coeff, which no other state holds
                    val = coeff
                dest = acc.setdefault(key, val)
                if dest is not val:
                    for e, c in val.items():
                        v = dest.get(e, 0) + c
                        if v:
                            dest[e] = v
                        else:
                            del dest[e]
        states = acc
    by_mate = {NE: None, SE: None, SW: None, **states}
    return BracketTriple(
        LaurentPoly(by_mate[SW]), LaurentPoly(by_mate[NE]), LaurentPoly(by_mate[SE])
    )


def _alternating_sum(length: int, step_sign: int) -> LaurentPoly:
    """sum_{k=0}^{length-1} (-A^{4*step_sign})^k."""
    terms = {}
    for k in range(length):
        e = 4 * step_sign * k
        terms[e] = terms.get(e, 0) + (-1) ** k
    return LaurentPoly(terms)


def bracket_elementary(n: int, eps: int, axis: str = HORIZONTAL) -> BracketTriple:
    """Closed-form bracket of an elementary twist region.

    Horizontal n-twist region: f = A^{n-2s} * sum_k (-A^{-4s})^k, g = A^n
    (s the sign of n); the virtual marker moves g to h.  Vertical n-twist
    region: f = A^{-n}, g = A^{-n+2s} * sum_k (-A^{4s})^k; the virtual marker
    moves f to h.
    """
    if n is INF:
        raise ValueError("the infinite entry is the trivial vertical tangle")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if axis not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown axis {axis!r}")
    s = 1 if n > 0 else -1
    k = abs(n)
    if axis == HORIZONTAL:
        f = _alternating_sum(k, -s).shift(n - 2 * s) if k else ZERO
        main = LaurentPoly.monomial(n)
        if eps:
            return BracketTriple(f, ZERO, main)
        return BracketTriple(f, main, ZERO)
    g = _alternating_sum(k, s).shift(-n + 2 * s) if k else ZERO
    main = LaurentPoly.monomial(-n)
    if eps:
        return BracketTriple(ZERO, g, main)
    return BracketTriple(main, g, ZERO)


def combine_triples(t: BracketTriple, s: BracketTriple, op: str) -> BracketTriple:
    """Bracket of a combined diagram from the two component brackets.

    'plus' glues east-to-west, 'star' stacks top-to-bottom; the loop factor
    enters where the two trivial pictures close a circle.
    """
    d = LOOP_FACTOR
    if op == "plus":
        f = t.f * s.f * d + t.f * s.g + t.f * s.h + t.g * s.f + t.h * s.f
        g = t.g * s.g + t.h * s.h
        h = t.g * s.h + t.h * s.g
        return BracketTriple(f, g, h)
    if op == "star":
        f = t.f * s.f + t.h * s.h
        g = t.f * s.g + t.g * s.f + t.g * s.g * d + t.g * s.h + t.h * s.g
        h = t.f * s.h + t.h * s.f
        return BracketTriple(f, g, h)
    raise ValueError(f"unknown combination {op!r}")


def bracket_vector(vec: TangleVector) -> BracketTriple:
    """Bracket of build_basic(vec), folded through the tangle algebra.

    The same state sum as bracket(build_basic(vec)), factored along the
    construction: each twist region contributes its closed form and each
    sum or stack combines two triples, so the cost is linear in the vector
    length instead of 2^N in the classical crossings.
    """
    return fold_basic(vec, bracket_elementary, combine_triples)


@lru_cache(maxsize=None)
def _elementary_gaussian(n: int, eps: int, axis: str) -> tuple:
    """(f, g, h) of bracket_elementary(n, eps, axis) times A^-|n| at A = zeta_8,
    as (re, im) pairs of Gaussian integers.

    Every exponent of the region's bracket is congruent to its |n| classical
    crossings mod 2, so after the shift they are even and A^(2j) = i^j.  An
    odd exponent leaves Z[i]: NotGaussianError, with the shifted polynomial's
    zeta and zeta^3 coordinates.
    """
    t = bracket_elementary(n, eps, axis)
    k = abs(n)
    out = []
    for p in (t.f, t.g, t.h):
        z = [0, 0, 0, 0]  # coordinates on 1, zeta, zeta^2 = i, zeta^3
        for e, c in p.items():
            e -= k
            z[e & 3] += -c if e & 4 else c
        if z[1] or z[3]:
            raise NotGaussianError(z[1], z[3])
        out.append((z[0], z[2]))
    return tuple(out)


def _combine_gaussian(t: tuple, s: tuple, op: str) -> tuple:
    """combine_triples on _elementary_gaussian's (f, g, h) values.  The
    shifts multiply, as the crossing counts add.  The loop factor
    -A^2 - A^-2 vanishes at A = zeta_8, so its terms drop out and each
    combination takes six Gaussian-integer products."""
    (fa, fb), (ga, gb), (ha, hb) = t
    (sfa, sfb), (sga, sgb), (sha, shb) = s
    if op == PLUS:
        # f = tf*(sg + sh) + (tg + th)*sf, g = tg*sg + th*sh, h = tg*sh + th*sg
        ua, ub = sga + sha, sgb + shb
        va, vb = ga + ha, gb + hb
        return (
            (fa * ua - fb * ub + va * sfa - vb * sfb, fa * ub + fb * ua + va * sfb + vb * sfa),
            (ga * sga - gb * sgb + ha * sha - hb * shb, ga * sgb + gb * sga + ha * shb + hb * sha),
            (ga * sha - gb * shb + ha * sga - hb * sgb, ga * shb + gb * sha + ha * sgb + hb * sga),
        )
    # f = tf*sf + th*sh, g = (tf + th)*sg + tg*(sf + sh), h = tf*sh + th*sf
    ua, ub = fa + ha, fb + hb
    va, vb = sfa + sha, sfb + shb
    return (
        (fa * sfa - fb * sfb + ha * sha - hb * shb, fa * sfb + fb * sfa + ha * shb + hb * sha),
        (ua * sga - ub * sgb + ga * va - gb * vb, ua * sgb + ub * sga + ga * vb + gb * va),
        (fa * sha - fb * shb + ha * sfa - hb * sfb, fa * shb + fb * sha + ha * sfb + hb * sfa),
    )


def _bracket_vector_gaussian(vec: TangleVector) -> tuple:
    """(f, g, h) of bracket_vector(vec) times A^-N at A = zeta_8, where N is
    the classical crossing count, as (re, im) pairs of Gaussian integers.
    The fold runs in Z[i] from the start, so no polynomial is built."""
    return fold_basic(vec, _elementary_gaussian, _combine_gaussian)


def bracket_vector_at_zeta8(vec: TangleVector) -> tuple:
    """(f, g, h) of bracket_vector(vec) evaluated at A = zeta_8, as Cyc8
    values: zeta^N times _bracket_vector_gaussian(vec)."""
    triple = _bracket_vector_gaussian(vec)  # validates vec
    unit = ZETA ** sum(abs(a) for a, _ in vec.entries if a is not INF)
    return tuple(unit * Cyc8(a, 0, b) for a, b in triple)  # a + b*zeta^2


TRIPLE_H = BracketTriple(ZERO, ONE, ZERO)  # trivial horizontal tangle
TRIPLE_V = BracketTriple(ONE, ZERO, ZERO)  # trivial vertical tangle
TRIPLE_X = BracketTriple(ZERO, ZERO, ONE)  # single virtual crossing
