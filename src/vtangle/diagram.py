"""Virtual tangle diagrams as 4-endpoint port graphs, plus their moves.

A diagram is a set of 4-port nodes (classical crossings carry a sign, virtual
crossings carry none), a perfect matching of arcs on the ports plus the four
boundary endpoints NW/NE/SE/SW, and a count of closed free loops.

Sign convention: a +1 crossing is the one whose A-smoothing joins its north
port pair and its south port pair (the horizontal smoothing); -1 swaps the
two smoothings.  Rotating a crossing by a quarter turn therefore flips its
stored sign, while a half turn preserves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MixedSignError, VectorRuleError
from .vector import INF, TangleVector

NW, NE, SE, SW = 0, 1, 2, 3
COMPASS = (NW, NE, SE, SW)
COMPASS_NAMES = ("NW", "NE", "SE", "SW")
HORIZONTAL = "horizontal"
VERTICAL = "vertical"
VIRTUAL = 0  # sign value marking a virtual crossing
BOUNDARY = -1  # node index used for the four tangle endpoints
PLUS = "plus"
STAR = "star"

# Image of each compass slot under rotation by pi.
_PI_ROT = (SE, SW, NW, NE)


@dataclass(frozen=True)
class TangleDiagram:
    """Immutable port graph with canonical arc ordering."""

    signs: tuple
    arcs: tuple
    free_loops: int = field(default=0)

    def __post_init__(self):
        canon = tuple(sorted(tuple(sorted(arc)) for arc in self.arcs))
        object.__setattr__(self, "arcs", canon)
        seen = {}
        for arc in canon:
            if len(arc) != 2 or arc[0] == arc[1]:
                raise ValueError(f"malformed arc {arc}")
            for node, slot in arc:
                if slot not in COMPASS:
                    raise ValueError(f"bad slot in endpoint ({node}, {slot})")
                if node != BOUNDARY and not 0 <= node < len(self.signs):
                    raise ValueError(f"endpoint references missing node {node}")
                if (node, slot) in seen:
                    raise ValueError(f"endpoint ({node}, {slot}) used twice")
                seen[(node, slot)] = True
        expected = 4 * len(self.signs) + 4
        if len(seen) != expected:
            raise ValueError(
                f"diagram must touch every port and endpoint exactly once"
                f" ({len(seen)} of {expected} present)"
            )
        for s in self.signs:
            if s not in (-1, VIRTUAL, 1):
                raise ValueError(f"bad node sign {s}")
        if self.free_loops < 0:
            raise ValueError("free_loops must be nonnegative")

    @property
    def n_nodes(self) -> int:
        return len(self.signs)

    @property
    def classical_indices(self) -> tuple:
        return tuple(i for i, s in enumerate(self.signs) if s != VIRTUAL)

    @property
    def n_classical(self) -> int:
        return len(self.classical_indices)


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


def _fuse(partner, ident, terminal_map):
    """Contract 2-valent glue junctions out of a matching.

    partner: endpoint -> endpoint from the raw arcs; ident: junction -> its
    glued twin (both directions); terminal_map: surviving endpoint -> final
    label.  Returns (arcs, closed_loop_count).
    """
    arcs = []
    loops = 0
    visited = set()
    for start in terminal_map:
        if start in visited:
            continue
        visited.add(start)
        cur = partner[start]
        while cur in ident:
            visited.add(cur)
            twin = ident[cur]
            visited.add(twin)
            cur = partner[twin]
        visited.add(cur)
        arcs.append((terminal_map[start], terminal_map[cur]))
    for tok in ident:
        if tok in visited:
            continue
        loops += 1
        cur = tok
        while cur not in visited:
            visited.add(cur)
            twin = ident[cur]
            visited.add(twin)
            cur = partner[twin]
    return arcs, loops


def combine(t: TangleDiagram, s: TangleDiagram, op: str) -> TangleDiagram:
    """Tangle sum: 'plus' glues t's east endpoints to s's west endpoints;
    'star' glues t's south endpoints to s's north endpoints."""
    if op not in (PLUS, STAR):
        raise ValueError(f"unknown combination {op!r}")
    shift = t.n_nodes

    def t_ep(ep):
        node, slot = ep
        return ("T", slot) if node == BOUNDARY else ep

    def s_ep(ep):
        node, slot = ep
        return ("S", slot) if node == BOUNDARY else (node + shift, slot)

    partner = {}
    for a, b in t.arcs:
        pa, pb = t_ep(a), t_ep(b)
        partner[pa] = pb
        partner[pb] = pa
    for a, b in s.arcs:
        pa, pb = s_ep(a), s_ep(b)
        partner[pa] = pb
        partner[pb] = pa

    if op == PLUS:
        glue = ((("T", NE), ("S", NW)), (("T", SE), ("S", SW)))
        boundary = {("T", NW): NW, ("T", SW): SW, ("S", NE): NE, ("S", SE): SE}
    else:
        glue = ((("T", SW), ("S", NW)), (("T", SE), ("S", NE)))
        boundary = {("T", NW): NW, ("T", NE): NE, ("S", SW): SW, ("S", SE): SE}

    ident = {}
    for x, y in glue:
        ident[x] = y
        ident[y] = x
    terminal_map = {}
    for node in range(t.n_nodes + s.n_nodes):
        for slot in COMPASS:
            terminal_map[(node, slot)] = (node, slot)
    for tok, compass in boundary.items():
        terminal_map[tok] = (BOUNDARY, compass)

    arcs, loops = _fuse(partner, ident, terminal_map)
    return TangleDiagram(
        t.signs + s.signs, tuple(arcs), t.free_loops + s.free_loops + loops
    )


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
    if not entries:
        raise VectorRuleError("a tangle vector needs at least one entry", 1)
    a0, e0 = entries[0]
    if a0 is INF:
        t = leaf(0, 0, VERTICAL)
    else:
        t = leaf(a0, e0, HORIZONTAL)
    for i in range(1, len(entries)):
        a, e = entries[i]
        if a is INF:
            raise VectorRuleError("inf is allowed only as the first entry", i + 1)
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
    """Rotate the whole diagram by a half turn; crossing signs are preserved."""
    arcs = tuple(
        tuple((node, _PI_ROT[slot]) for node, slot in arc) for arc in t.arcs
    )
    return TangleDiagram(t.signs, arcs, t.free_loops)


def add_free_loop(t: TangleDiagram) -> TangleDiagram:
    """Adjoin one disjoint closed loop (bracket gains one loop factor)."""
    return TangleDiagram(t.signs, t.arcs, t.free_loops + 1)


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
    v1 = t.n_nodes
    v2 = t.n_nodes + 1
    rewire = {
        (idx, NW): (v1, NW),
        (idx, SW): (v1, SW),
        (idx, NE): (v2, NE),
        (idx, SE): (v2, SE),
    }
    arcs = [
        tuple(rewire.get(ep, ep) for ep in arc) for arc in t.arcs
    ]
    arcs += [
        ((v1, NE), (idx, NW)),
        ((v1, SE), (idx, SW)),
        ((idx, NE), (v2, NW)),
        ((idx, SE), (v2, SW)),
    ]
    return TangleDiagram(t.signs + (VIRTUAL, VIRTUAL), tuple(arcs), t.free_loops)


def insert_kink(t: TangleDiagram, endpoint: int, sign: int) -> TangleDiagram:
    """Attach a curl at a boundary endpoint: one new classical crossing whose
    south ports are joined by the loop arc.  Multiplies the bracket by -A^3
    (sign +1) or -A^-3 (sign -1)."""
    if endpoint not in COMPASS:
        raise ValueError("endpoint must be one of NW, NE, SE, SW")
    if sign not in (1, -1):
        raise ValueError("kink sign must be +1 or -1")
    k = t.n_nodes
    target = (BOUNDARY, endpoint)
    arcs = []
    spliced = False
    for arc in t.arcs:
        if target in arc:
            other = arc[0] if arc[1] == target else arc[1]
            arcs.append((other, (k, NW)))
            spliced = True
        else:
            arcs.append(arc)
    if not spliced:
        raise ValueError(f"endpoint {COMPASS_NAMES[endpoint]} not found")
    arcs.append(((k, NE), target))
    arcs.append(((k, SE), (k, SW)))
    return TangleDiagram(t.signs + (sign,), tuple(arcs), t.free_loops)


@dataclass(frozen=True)
class TwistWord:
    """A twist region spelled letter by letter: +1, -1, or 0 (virtual)."""

    letters: tuple
    axis: str = field(default=HORIZONTAL)

    def __post_init__(self):
        for w in self.letters:
            if w not in (-1, 0, 1):
                raise ValueError("twist letters are +1, -1, or 0 (virtual)")
        if self.axis not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"unknown axis {self.axis!r}")


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
    # end1 and end2 are the two strands the next node takes in.
    end1, end2 = (BOUNDARY, in1), (BOUNDARY, in2)
    arcs = []
    for j in range(len(word.letters)):
        arcs += [(end1, (j, in1)), (end2, (j, in2))]
        end1, end2 = (j, out1), (j, out2)
    arcs += [(end1, (BOUNDARY, out1)), (end2, (BOUNDARY, out2))]
    return TangleDiagram(tuple(word.letters), tuple(arcs))
