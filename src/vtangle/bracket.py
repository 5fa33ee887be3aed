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

from dataclasses import dataclass

from .diagram import (
    BOUNDARY,
    HORIZONTAL,
    NE,
    NW,
    SE,
    SW,
    VERTICAL,
    VIRTUAL,
    TangleDiagram,
    fold_basic,
)
from .laurent import LOOP_FACTOR, ONE, ZERO, LaurentPoly
from .vector import INF, TangleVector

PAIRING_H = "H"
PAIRING_V = "V"
PAIRING_X = "X"


@dataclass(frozen=True)
class BracketTriple:
    """Coefficients of the vertical, horizontal, and virtual pictures."""

    f: LaurentPoly
    g: LaurentPoly
    h: LaurentPoly

    def scaled(self, p: LaurentPoly) -> "BracketTriple":
        return BracketTriple(self.f * p, self.g * p, self.h * p)

    def as_dict(self) -> dict:
        return {"f": str(self.f), "g": str(self.g), "h": str(self.h)}


@dataclass(frozen=True)
class StateResolution:
    """One state of the sum: its boundary pairing, loop count, and weight."""

    pairing: str
    loops: int
    weight: LaurentPoly


class _Compiled:
    """Flat-array form of a diagram for fast per-state resolution.

    Ports are numbered 4*node + slot; the four boundary endpoints sit after
    all node ports.  partner follows arcs, internal follows the smoothing.
    """

    __slots__ = ("partner", "template", "classical", "signs", "free_loops", "bb")

    def __init__(self, d: TangleDiagram):
        nn = d.n_nodes
        self.bb = 4 * nn
        partner = [-1] * (self.bb + 4)
        for a, b in d.arcs:
            pa = self.bb + a[1] if a[0] == BOUNDARY else 4 * a[0] + a[1]
            pb = self.bb + b[1] if b[0] == BOUNDARY else 4 * b[0] + b[1]
            partner[pa] = pb
            partner[pb] = pa
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
        self.partner = partner
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
    """Resolve one explicit choice vector (one bit per classical crossing)."""
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

    The per-state contributions commute, so any enumeration order gives the
    same triple; this one runs the choice vectors in numeric order.
    """
    comp = _Compiled(d)
    ncl = len(comp.classical)
    acc = {PAIRING_H: {}, PAIRING_V: {}, PAIRING_X: {}}
    loop_pows = [{0: 1}]
    for bits in range(1 << ncl):
        pairing, loops = comp.resolve(bits)
        while len(loop_pows) <= loops:
            prev = loop_pows[-1]
            nxt = {}
            for e, c in prev.items():
                for de, dc in ((2, -1), (-2, -1)):
                    k = e + de
                    v = nxt.get(k, 0) + c * dc
                    if v:
                        nxt[k] = v
                    else:
                        del nxt[k]
            loop_pows.append(nxt)
        w = ncl - 2 * bits.bit_count()
        dest = acc[pairing]
        for e, c in loop_pows[loops].items():
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


TRIPLE_H = BracketTriple(ZERO, ONE, ZERO)  # trivial horizontal tangle
TRIPLE_V = BracketTriple(ONE, ZERO, ZERO)  # trivial vertical tangle
TRIPLE_X = BracketTriple(ZERO, ZERO, ONE)  # single virtual crossing
