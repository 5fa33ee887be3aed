"""Virtual tangle diagrams as 4-endpoint port graphs, plus their moves.

A diagram is a set of 4-port nodes (classical crossings carry a sign, virtual
crossings carry none), a perfect matching of arcs on the ports plus the four
boundary endpoints NW/NE/SE/SW, and a count of closed free loops.

The matching is stored as a port array.  Slot s of node j is port 4*j + s,
endpoint c is port 4*n_nodes + c, and link[p] is the port at the other end
of p's arc.  Gluing, rotating and decorating a diagram splice this array;
both bracket engines read it as it is, and the arc list (node, slot) pairs
of the constructor is derived from it on demand.

Sign convention: a +1 crossing is the one whose A-smoothing joins its north
port pair and its south port pair (the horizontal smoothing); -1 swaps the
two smoothings.  Rotating a crossing by a quarter turn therefore flips its
stored sign, while a half turn preserves it.
"""

from __future__ import annotations

from operator import eq, itemgetter

from ._value import Value, setters
from .errors import MixedSignError
from .vector import INF, TangleVector

NW, NE, SE, SW = 0, 1, 2, 3
COMPASS = (NW, NE, SE, SW)
HORIZONTAL = "horizontal"
VERTICAL = "vertical"
VIRTUAL = 0  # sign value marking a virtual crossing
BOUNDARY = -1  # node index used for the four tangle endpoints
PLUS = "plus"
STAR = "star"


class TangleDiagram(Value):
    """Immutable port graph: node signs, port array link, free loop count.

    TangleDiagram(signs, arcs, free_loops) takes the arcs as pairs of
    (node, slot) endpoints, node BOUNDARY for the four tangle endpoints, in
    any order.  A matching stored as link is already canonical, so equal
    diagrams compare and hash equal without sorting.
    """

    __slots__ = ("signs", "link", "free_loops")

    def __init__(self, signs, arcs, free_loops: int = 0):
        signs = tuple(signs)
        bb = 4 * len(signs)
        link = [-1] * (bb + 4)
        present = 0
        for arc in arcs:
            arc = tuple(arc)
            if len(arc) != 2 or arc[0] == arc[1]:
                raise ValueError(f"malformed arc {tuple(sorted(arc))}")
            ports = []
            for node, slot in arc:
                if slot not in COMPASS:
                    raise ValueError(f"bad slot in endpoint ({node}, {slot})")
                if node == BOUNDARY:
                    p = bb + slot
                elif 0 <= node < len(signs):
                    p = 4 * node + slot
                else:
                    raise ValueError(f"endpoint references missing node {node}")
                if link[p] >= 0:
                    raise ValueError(f"endpoint ({node}, {slot}) used twice")
                ports.append(p)
            p, q = ports
            link[p] = q
            link[q] = p
            present += 2
        if present != len(link):
            raise ValueError(
                f"diagram must touch every port and endpoint exactly once"
                f" ({present} of {len(link)} present)"
            )
        _new(signs, tuple(link), free_loops, self)

    def __post_init__(self):
        """The one check every diagram passes, however it was built: link
        pairs each of the 4*n_nodes + 4 ports with another one."""
        link = self.link
        ports = tuple(range(4 * len(self.signs) + 4))
        try:
            paired = itemgetter(*link)(link) == ports
        except (IndexError, TypeError):
            paired = False
        if not paired or any(map(eq, link, ports)):
            raise ValueError("link must pair every port with another one")
        for s in self.signs:
            if s not in (-1, VIRTUAL, 1):
                raise ValueError(f"bad node sign {s}")
        if self.free_loops < 0:
            raise ValueError("free_loops must be nonnegative")

    @property
    def arcs(self) -> tuple:
        """The matching as sorted pairs of sorted (node, slot) endpoints."""
        bb = 4 * len(self.signs)
        ends = [divmod(p, 4) for p in range(bb)] + [(BOUNDARY, c) for c in COMPASS]
        return tuple(sorted(
            (ends[p], ends[q]) if ends[p] < ends[q] else (ends[q], ends[p])
            for p, q in enumerate(self.link) if p < q
        ))

    @property
    def n_nodes(self) -> int:
        return len(self.signs)

    @property
    def classical_indices(self) -> tuple:
        return tuple(i for i, s in enumerate(self.signs) if s != VIRTUAL)

    @property
    def n_classical(self) -> int:
        return len(self.classical_indices)


_SET_SIGNS, _SET_LINK, _SET_FREE_LOOPS = setters(TangleDiagram)


def _new(signs: tuple, link: tuple, free_loops: int, d=None) -> TangleDiagram:
    """The one place a diagram gets its fields: set them on d (a fresh
    diagram by default) and run the validator."""
    if d is None:
        d = object.__new__(TangleDiagram)
    _SET_SIGNS(d, signs)
    _SET_LINK(d, link)
    _SET_FREE_LOOPS(d, free_loops)
    d.__post_init__()
    return d


def _relabel(t: TangleDiagram, signs: tuple, new, arcs=()) -> TangleDiagram:
    """t with port p renamed new[p], the extra arcs (pairs of new ports)
    added, and signs as the node signs; free loops are kept."""
    link = [0] * (4 * len(signs) + 4)
    for p, q in enumerate(t.link):
        link[new[p]] = new[q]
    for p, q in arcs:
        link[p] = q
        link[q] = p
    return _new(signs, tuple(link), t.free_loops)


def elementary(n: int, eps: int, axis: str = HORIZONTAL) -> TangleDiagram:
    """Twist-region diagram: n crossings chained along the axis, plus one
    virtual crossing at the east (horizontal) or south (vertical) end if eps.

    n = 0 with eps = 0 gives the trivial tangle of the axis; the infinite
    entry is the caller's job (it is the trivial vertical tangle).
    """
    if n is INF:
        raise ValueError("build the infinite entry as elementary(0, 0, VERTICAL)")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if axis not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown axis {axis!r}")
    sign = 1 if n > 0 else -1
    return twist_word_diagram(TwistWord((sign,) * abs(n) + (VIRTUAL,) * eps, axis))


# The end pairs each combination glues.  Ends 0-3 are t's endpoints and 4-7
# are s's, in compass order; every other end becomes the result's endpoint
# of its own compass point.
_GLUE = {
    PLUS: {NE: 4 + NW, 4 + NW: NE, SE: 4 + SW, 4 + SW: SE},
    STAR: {SW: 4 + NW, 4 + NW: SW, SE: 4 + NE, 4 + NE: SE},
}


def combine(t: TangleDiagram, s: TangleDiagram, op: str) -> TangleDiagram:
    """Tangle sum: 'plus' glues t's east endpoints to s's west endpoints;
    'star' glues t's south endpoints to s's north endpoints."""
    twin = _GLUE.get(op)
    if twin is None:
        raise ValueError(f"unknown combination {op!r}")
    tb = 4 * t.n_nodes
    sb = 4 * s.n_nodes
    bb = tb + sb
    # s's nodes follow t's; arcs between node ports carry over as they are
    link = [*t.link[:tb], *(q + tb for q in s.link[:sb]), 0, 0, 0, 0]
    # inner[e]: where end e's arc leads inside its own tangle, a port of the
    # result or ~f for end f
    inner = [q if q < tb else ~(q - tb) for q in t.link[tb:]]
    inner += [q + tb if q < sb else ~(q - sb + 4) for q in s.link[sb:]]

    def reach(x):
        # the result port at the far end of a strand that reaches x (a port,
        # or ~e for arriving at end e from inside its tangle)
        while x < 0 and ~x in twin:
            x = inner[twin[~x]]
        return x if x >= 0 else bb + (~x & 3)

    for e, x in enumerate(inner):
        if x >= 0:
            link[x] = reach(~e)
        if e not in twin:
            link[bb + (e & 3)] = reach(x)
    # the glued ends close a loop only when each leads back to another
    closed = all(inner[e] < 0 and ~inner[e] in twin for e in twin)
    return _new(t.signs + s.signs, tuple(link), t.free_loops + s.free_loops + closed)


def fold_basic(vec: TangleVector, leaf, join):
    """Fold the alternating sum/stack construction of a vector.

    leaf(a, e, axis) gives one twist region and join(t, s, op) glues two
    pieces with PLUS or STAR.  The first entry is horizontal (inf is the
    trivial vertical tangle), odd positions stack vertically, even positions
    add horizontally, and an even length adds the trivial horizontal tangle
    at the east end.
    """
    vec = vec.normalized()
    vec.validate()
    entries = vec.entries
    a0, e0 = entries[0]
    if a0 is INF:
        t = leaf(0, 0, VERTICAL)
    else:
        t = leaf(a0, e0, HORIZONTAL)
    for i in range(1, len(entries)):
        a, e = entries[i]
        if i % 2 == 1:
            t = join(t, leaf(a, e, VERTICAL), STAR)
        else:
            t = join(t, leaf(a, e, HORIZONTAL), PLUS)
    if len(entries) % 2 == 0:
        t = join(t, leaf(0, 0, HORIZONTAL), PLUS)
    return t


def build_basic(vec: TangleVector) -> TangleDiagram:
    """Alternating sum/stack construction of the basic diagram of a vector."""
    return fold_basic(vec, elementary, combine)


def rotate_pi(t: TangleDiagram) -> TangleDiagram:
    """Rotate the whole diagram by a half turn; crossing signs are preserved.

    The half turn swaps NW with SE and NE with SW, which flips bit 1 of
    every port number, endpoints included."""
    return _relabel(t, t.signs, [p ^ 2 for p in range(len(t.link))])


def add_free_loop(t: TangleDiagram) -> TangleDiagram:
    """Adjoin one disjoint closed loop (bracket gains one loop factor)."""
    return _new(t.signs, t.link, t.free_loops + 1)


FLYPE_KINDS = ("classical-left", "classical-right", "virtual")


def flype_pair(p: TangleDiagram, kind: str, sign: int = 1):
    """The two sides of a flype move around box p; their brackets agree.

    classical-left: crossing west of p vs. half-turned p with the crossing
    east; classical-right is the mirror; virtual uses a virtual crossing.
    """
    if kind not in FLYPE_KINDS:
        raise ValueError(f"unknown flype kind {kind!r}")
    if kind == "virtual":
        c = elementary(0, 1, HORIZONTAL)
    else:
        if sign not in (1, -1):
            raise ValueError("flype crossing sign must be +1 or -1")
        c = elementary(sign, 0, HORIZONTAL)
    q = rotate_pi(p)
    if kind == "classical-right":
        return combine(p, c, PLUS), combine(c, q, PLUS)
    return combine(c, p, PLUS), combine(q, c, PLUS)


def virtualize_crossing(t: TangleDiagram, idx: int) -> TangleDiagram:
    """Replace classical crossing idx by its virtualization; bracket unchanged.

    The move flanks the crossing with two virtual crossings on its west and
    east strand pairs.  The flanking transpositions exchange which strand of
    the tangle runs over the crossing, which is the physical over/under
    switch; the stored sign is smoothing-relative and therefore kept.
    """
    if not 0 <= idx < t.n_nodes or t.signs[idx] == VIRTUAL:
        raise ValueError(f"node {idx} is not a classical crossing")
    bb = 4 * t.n_nodes
    x, v1, v2 = 4 * idx, bb, bb + 4
    # the crossing's old arcs move to the outer slots of the flanking nodes
    new = [*range(bb), *range(bb + 8, bb + 12)]
    new[x + NW], new[x + SW] = v1 + NW, v1 + SW
    new[x + NE], new[x + SE] = v2 + NE, v2 + SE
    arcs = ((v1 + NE, x + NW), (v1 + SE, x + SW), (x + NE, v2 + NW), (x + SE, v2 + SW))
    return _relabel(t, t.signs + (VIRTUAL, VIRTUAL), new, arcs)


def insert_kink(t: TangleDiagram, endpoint: int, sign: int) -> TangleDiagram:
    """Attach a curl at a boundary endpoint: one new classical crossing whose
    south ports are joined by the loop arc.  Multiplies the bracket by -A^3
    (sign +1) or -A^-3 (sign -1)."""
    if endpoint not in COMPASS:
        raise ValueError("endpoint must be one of NW, NE, SE, SW")
    if sign not in (1, -1):
        raise ValueError("kink sign must be +1 or -1")
    k = 4 * t.n_nodes
    # the endpoint's arc now ends at the new node's NW port, and the four
    # endpoints move up past the new node's ports
    new = [*range(k), *range(k + 4, k + 8)]
    new[k + endpoint] = k + NW
    arcs = ((k + NE, k + 4 + endpoint), (k + SE, k + SW))
    return _relabel(t, t.signs + (sign,), new, arcs)


class TwistWord(Value):
    """A twist region spelled letter by letter: +1, -1, or 0 (virtual)."""

    __slots__ = ("letters", "axis")

    def __init__(self, letters: tuple, axis: str = HORIZONTAL):
        for w in letters:
            if w not in (-1, 0, 1):
                raise ValueError("twist letters are +1, -1, or 0 (virtual)")
        if axis not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"unknown axis {axis!r}")
        _SET_LETTERS(self, letters)
        _SET_AXIS(self, axis)


_SET_LETTERS, _SET_AXIS = setters(TwistWord)


def reduce_twist_region(word: TwistWord):
    """Reduce a twist word to the (n, eps) of its elementary tangle.

    n is the signed classical letter count and eps the parity of virtual
    letters; mixing classical signs in one region is rejected.
    """
    pos = sum(1 for w in word.letters if w == 1)
    neg = sum(1 for w in word.letters if w == -1)
    if pos and neg:
        raise MixedSignError("twist region mixes positive and negative crossings")
    virt = sum(1 for w in word.letters if w == 0)
    return pos - neg, virt % 2


def twist_word_diagram(word: TwistWord) -> TangleDiagram:
    """Chain diagram of a twist word, letters laid out along the axis."""
    if word.axis == HORIZONTAL:
        (in1, in2), (out1, out2) = (NW, SW), (NE, SE)
    else:
        (in1, in2), (out1, out2) = (NW, NE), (SW, SE)
    bb = 4 * len(word.letters)
    link = [0] * (bb + 4)
    # end1 and end2 are the ports of the two strands the next node takes in.
    end1, end2 = bb + in1, bb + in2
    for base in range(0, bb, 4):
        link[end1], link[base + in1] = base + in1, end1
        link[end2], link[base + in2] = base + in2, end2
        end1, end2 = base + out1, base + out2
    link[end1], link[bb + out1] = bb + out1, end1
    link[end2], link[bb + out2] = bb + out2, end2
    return _new(tuple(word.letters), tuple(link), 0)
