"""Combinatorial quivers of minuscule Schubert varieties.

Fix a reduced word (b_1, ..., b_N) for the longest coset representative of
W/W_P, P a minuscule maximal parabolic.  The quiver has one vertex per
letter position.  Writing s(i) for the next and p(i) for the previous
position carrying the same simple root as i, there is an arrow i -> j
whenever the roots pair nontrivially, i < j, and j < s(i) (no bound when
s(i) does not exist).  The partial order puts i below j when an oriented
path runs from j down to i; since arrows always increase the position
index, the early positions are the high ones.

Subvarieties enter as order ideals: the down-closed vertex subsets are in
bijection with W^P (read the ideal's letters in increasing position order
to get a reduced word for its element), and containment of ideals is the
Bruhat order.  This is why the vertex set of an embedded quiver is a
marked subset of the big quiver rather than a quiver rebuilt from
scratch.

Hole bookkeeping, with the conventions pinned by cross-checking against
the Young-diagram singular locus on Grassmannians (the alternative
readings fail on the first singular example, the divisor in Gr(2,4)):

* a *real hole* of a marked quiver Q_w is a marked vertex i whose p(i) is
  unmarked or absent, such that exactly two marked vertices j != i with
  j >= i pair nontrivially with i;
* a *virtual hole* is an unmarked vertex i with no s(i) at all;
* a real hole is *essential* when no other real hole sits weakly above it.

A marked quiver is smooth exactly when it has no real holes, and each
essential hole h carves out one component of the singular locus: drop
everything weakly above h from the ideal and keep what remains.  One pass,
:func:`classify_holes`, returns the holes and these components together.
"""

from bisect import insort
from collections import namedtuple
from heapq import heapify, heappop, heappush

from .rootdata import RootSystem, check_minuscule, minuscule_orbit_size, reflect
from .weyl import MinusculePoset


class Quiver(namedtuple("Quiver", "system word members targets prev next")):
    """A quiver on the positions of a reduced word, with a marked subset.

    ``members`` is the marked ideal (all positions for the full quiver).
    Positions are 0-based internally.  The order is kept only as the
    arrows, each vertex's targets in increasing position order; ``prev``
    and ``next`` hold p(i) and s(i), ``None`` where there is none.
    """

    __slots__ = ()

    @property
    def n_vertices(self) -> int:
        return len(self.word)

    @property
    def arrows(self) -> tuple[tuple[int, int], ...]:
        """Every arrow (i, j), in increasing order of i and then of j."""
        return tuple((i, j) for i, ts in enumerate(self.targets) for j in ts)

    def label(self, i: int) -> int:
        return self.word[i]

    def up_masks(self) -> list[int]:
        """Bit i of ``up[v]`` is set when i is weakly above v: ``up[t] |=
        up[k]`` for each arrow k -> t in position order, which completes
        ``up[k]`` first.  O(arrows * N / 64) time, N^2 / 8 bytes at most."""
        up = [1 << v for v in range(len(self.word))]
        for k, ts in enumerate(self.targets):
            for t in ts:
                up[t] |= up[k]
        return up

    def is_ideal(self, subset) -> bool:
        """Down-closed: closed under arrows, hence under paths."""
        subset = frozenset(subset)
        return all(subset.issuperset(self.targets[v]) for v in subset)

    def marked(self, members) -> "Quiver":
        members = frozenset(members)
        if members and (min(members) < 0 or max(members) >= self.n_vertices):
            raise ValueError("members must be existing vertex positions")
        if not self.is_ideal(members):
            raise ValueError(f"{sorted(members)} is not an order ideal")
        return self._replace(members=members)

    def ideals(self) -> list[tuple[frozenset[int], int | None, int | None]]:
        """Every order ideal once, graded by size, as ``(ideal, v, k)``.

        ``v`` is the vertex whose addition to the ideal listed at ``k`` gave
        ``ideal``, so it is maximal in ``ideal``; both are ``None`` for the
        empty ideal, which comes first.  Each ideal carries its sorted
        addable vertices: adding v can open only the sources of arrows into v.
        """
        sources: list[list[int]] = [[] for _ in self.targets]
        for u, ts in enumerate(self.targets):
            for t in ts:
                sources[t].append(u)
        found = [(frozenset(), None, None)]
        addable = [[v for v, ts in enumerate(self.targets) if not ts]]
        seen = {frozenset()}
        # breadth first: ``found`` and ``addable`` are the queue, read while they grow
        for k, ((ideal, _, _), free) in enumerate(zip(found, addable)):
            for v in free:
                grown = ideal | {v}
                if grown not in seen:
                    seen.add(grown)
                    found.append((grown, v, k))
                    rest = [u for u in free if u != v]
                    for u in sources[v]:
                        if grown.issuperset(self.targets[u]):
                            insort(rest, u)
                    addable.append(rest)
        return found


def word_targets(word, system: RootSystem) -> list[list[int]]:
    """The arrows of the quiver of a reduced word in one pass, O(N * degree):
    each vertex's list of targets, in increasing position order.

    Arrows: i -> j for i < j with nonzero Cartan pairing of the letters,
    bounded above by the next repetition s(i) of the letter of i.  So the
    arrows into j come from the latest earlier vertex labelled by each
    Dynkin neighbour of ``word[j]``: only that one has s(i) > j.
    """
    if word and not 1 <= min(word) <= max(word) <= system.rank:
        bad = next(b for b in word if not 1 <= b <= system.rank)
        raise ValueError(f"letter {bad} out of range for {system}")
    targets, neighbours = [], system.neighbours
    # the target list of the latest vertex of each label
    latest: list[list[int] | None] = [None] * (system.rank + 1)
    for j, b in enumerate(word):
        for c in neighbours[b - 1]:
            if latest[c] is not None:
                latest[c].append(j)
        latest[b] = row = []
        targets.append(row)
    return targets


def quiver_from_word(word, system: RootSystem) -> Quiver:
    """The quiver of a reduced word: :func:`word_targets`, p(i) and s(i)."""
    word, latest = tuple(word), {}
    prv, nxt = [None] * len(word), [None] * len(word)
    for j, b in enumerate(word):
        p = latest.get(b)
        if p is not None:
            prv[j], nxt[p] = p, j
        latest[b] = j
    return Quiver(
        system, word, frozenset(range(len(word))),
        tuple(map(tuple, word_targets(word, system))), tuple(prv), tuple(nxt),
    )


HoleReport = namedtuple("HoleReport", "real virtual essential components")


def _positions(mask: int):
    """The set bits of a bitmask, one step per bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def classify_holes(q: Quiver, up=None) -> HoleReport:
    """Real, virtual and essential holes of a marked quiver, and the
    component ideals of its singular locus: ``q.members`` minus the up-set
    of each essential hole, in the order of ``essential``.  They are
    distinct: no other real hole is weakly above an essential one, so each
    component keeps every other essential hole and drops only its own.

    Up-sets are read off ``up``, the full quiver's :meth:`Quiver.up_masks`
    (built here when not given); simply laced partners, same label or a
    Dynkin neighbour's, are one popcount against the marked mask.  Past the
    mask pass, O(N^2 / 64) for the ideal's and labels' masks, O(N / 64) per
    candidate and O(|members|) per component: 2.4-2.7 ms at A100/omega_50
    --w minimal with the masks given, 22-30 ms by up-set scans (2-vCPU VM,
    Python 3.11, best and median of 11, three runs)."""
    up = q.up_masks() if up is None else up
    members, labels, neighbours = q.members, q.word, q.system.neighbours
    marked, real, real_mask = sum(1 << i for i in members), [], 0
    of_label = [0] * (q.system.rank + 1)
    for i, b in enumerate(labels):
        of_label[b] |= 1 << i
    for i in sorted(members):
        if q.prev[i] in members:
            continue  # only the highest marked vertex of a label is a candidate
        b = labels[i]
        partners = of_label[b]
        for c in neighbours[b - 1]:
            partners |= of_label[c]
        if (up[i] & marked & partners).bit_count() == 3:  # i and two others
            real.append(i)
            real_mask |= 1 << i
    virtual = [i for i, s in enumerate(q.next) if s is None and i not in members]
    essential = [i for i in real if up[i] & real_mask == 1 << i]
    return HoleReport(
        tuple(real), tuple(virtual), tuple(essential),
        tuple(members.difference(_positions(up[h] & marked)) for h in essential),
    )


class MinusculeQuiver:
    """One minuscule pair (system, weight) on its full quiver.

    Every Schubert variety is an order ideal of ``full``, the quiver of
    the canonical word of the poset's bottom node, and every per-element
    question is answered on that ideal: :meth:`grow` turns a reduced word
    into its ideal, :meth:`word_of` reads an ideal's canonical word back
    off the quiver, and :func:`classify_holes` of the marked ideal gives
    one hole report: the holes, smoothness (no real hole) and the singular
    components, each read back through :meth:`word_of`, with the up-set
    masks ``up`` of ``full`` built once for all of them.  Weights enter
    only through that one bottom word, so a request costs time polynomial
    in the number N of quiver vertices (dim G/P), not in the orbit size.

    Both translations rest on one fact: when vertex v joins an ideal I,
    everything below v is already in I, so v is maximal in I + {v} and
    node(I + {v}) = s_{b_v}(node(I)), one level below node(I).  A
    coordinate +1 at b means the ideal has an addable vertex labelled b,
    and -1 at b a maximal one.
    """

    def __init__(self, system: RootSystem, weight_index: int):
        self.system = system
        self.poset = MinusculePoset(system, weight_index)
        self.full = quiver_from_word(
            self.poset.canonical_word(self.poset.bottom), system
        )
        self.up = self.full.up_masks()
        # the vertices of one label form a chain, lowest at the last position
        self._lowest = {b: i for i, b in enumerate(self.full.word)}

    def grow(self, word) -> frozenset[int]:
        """The order ideal of a reduced word of this orbit.

        Nearest letter first, each letter adds the one addable vertex with
        its label.  Those of one label outside the ideal form the top of
        their chain, so only the lowest of them can be addable: one pointer
        per label, moved up the chain, finds it.  A letter that finds none
        does not lower the weight, and the word is refused with
        ``ValueError``.
        """
        word = tuple(word)
        targets, prev = self.full.targets, self.full.prev
        free = dict(self._lowest)
        ideal: set[int] = set()
        for b in reversed(word):
            v = free.get(b)
            if v is None or not ideal.issuperset(targets[v]):
                raise ValueError(
                    f"{word} is not a reduced word of letters "
                    f"1..{self.system.rank} in this orbit"
                )
            ideal.add(v)
            free[b] = prev[v]
        return frozenset(ideal)

    def word_of(self, ideal) -> tuple[int, ...]:
        """The canonical word of an order ideal, read off the quiver.

        The canonical word raises a node along the smallest simple root
        whose coordinate is -1, which removes the maximal vertex of that
        label.  So the maximal vertex with the smallest label is removed
        until none is left, from a heap of the vertices no arrow inside
        the ideal reaches: O(|I| log N + arrows).
        """
        targets, labels = self.full.targets, self.full.word
        reached = [0] * len(labels)
        for u in ideal:
            for t in targets[u]:
                reached[t] += 1
        heap = [(labels[v], v) for v in ideal if not reached[v]]
        heapify(heap)
        word = []
        while heap:
            b, v = heappop(heap)
            word.append(b)
            for t in targets[v]:
                reached[t] -= 1
                if not reached[t]:
                    heappush(heap, (labels[t], t))
        return tuple(word)


class MinusculeModel(MinusculeQuiver):
    """The orbit of a minuscule pair, listed once from the quiver's ideals.

    This is the verification side.  ``ideals`` maps every node, in graded
    order, to its order ideal of ``full``, and ``nodes`` lists the nodes;
    the suites read each node's ideal from here once and ask it the
    questions a request asks.  Their independent oracle is
    ``ideal_node_dictionary_by_words`` in ``tests/oracles.py``.
    :meth:`holes` keeps each ideal's :func:`classify_holes` report, so
    suites that ask about the same ideal classify its holes once; the
    reports are bounded by the orbit that ``ideals`` already holds.
    :meth:`semistable_in_smooth` is the quiver form of the separation
    criterion, which only the suites compare against the others.

    The listing costs one reflection per ideal: ``Quiver.ideals`` lists
    I before I + {v}, with the index of I, and node(I + {v}) =
    s_{b_v}(node(I)).  The build checks, raising ``AssertionError``, that
    each letter lowers the weight, that every coordinate is -1, 0 or 1,
    that no node gets two ideals, that there are as many nodes as the
    closed-form orbit size, and that the full ideal's node is the poset's
    bottom.  Only then are the canonical words kept in ``words``, each in
    O(rank) from one listed one level up: the walk of
    :meth:`~torusq.weyl.MinusculePoset.canonical_word` raises a node at
    its first coordinate -1, say at i, so its word is (i,) followed by
    the word of s_i(node).
    """

    def __init__(self, system: RootSystem, weight_index: int):
        super().__init__(system, weight_index)
        listed = self.full.ideals()
        nodes: list[tuple[int, ...]] = []
        for ideal, v, k in listed:
            if v is None:
                node = self.poset.top
            else:
                node, b = nodes[k], self.full.label(v)
                if node[b - 1] != 1:
                    raise AssertionError(f"letter {b} does not lower {node}")
                node = reflect(system, node, b)
            if not set(node) <= {-1, 0, 1}:
                raise AssertionError(f"non-minuscule coordinate in orbit: {node}")
            nodes.append(node)
        self.ideals = {node: ideal for node, (ideal, _, _) in zip(nodes, listed)}
        self.nodes = list(self.ideals)
        if len(self.nodes) != len(listed):
            raise AssertionError("ideal/coset correspondence is not a bijection")
        size = minuscule_orbit_size(system.family, system.rank, weight_index)
        if len(self.nodes) != size:
            raise AssertionError(
                f"{len(self.nodes)} ideals for {size} coset elements"
            )
        if nodes[-1] != self.poset.bottom:  # graded: the full ideal comes last
            raise AssertionError("the full ideal is not the bottom node")
        self.words: dict[tuple[int, ...], tuple[int, ...]] = {self.poset.top: ()}
        for node in self.nodes[1:]:
            i = node.index(-1) + 1
            self.words[node] = (i,) + self.words[reflect(system, node, i)]
        self._holes: dict[frozenset[int], HoleReport] = {}

    def holes(self, ideal) -> HoleReport:
        """The hole report of one of this model's ideals, classified once;
        the ideals are the listing's own, so ``marked``'s checks are
        skipped."""
        report = self._holes.get(ideal)
        if report is None:
            report = self._holes[ideal] = classify_holes(
                self.full._replace(members=ideal), self.up
            )
        return report

    def semistable_in_smooth(self, w_ideal, v_ideal) -> bool:
        """Criterion: every essential hole of Q_w lies in the ideal of v.

        ``v_ideal`` is the minimal element with semistable points;
        ``w_ideal`` must contain it, otherwise there is nothing to test.
        """
        if not v_ideal <= w_ideal:
            raise ValueError("w does not dominate v: no semistable points")
        return all(h in v_ideal for h in self.holes(w_ideal).essential)


def minimal_v_word(family: str, rank: int, weight_index: int) -> tuple[int, ...]:
    """Reduced word of the minimal coset element with semistable points.

    Closed forms per family; the excluded pairs (the defining weight of
    type A at either end of the diagram, where the torus never has
    semistable points on a proper Schubert variety in the needed sense)
    raise.
    """
    check_minuscule(family, rank, weight_index)
    if family == "A":
        n = rank + 1
        r = weight_index
        if r in (1, n - 1):
            raise ValueError(
                "projective space has no singular Schubert varieties; "
                "the quiver criterion degenerates for omega_1 / omega_{n-1}"
            )
        from .grassmannian import minimal_semistable

        return column_set_word(minimal_semistable(r, n))
    if family == "D":
        n = rank
        if weight_index == 1:
            return tuple(range(n, 0, -1))
        # spin weights: the two fork letters strictly alternate between the
        # factors, and the factor nearest the top must reflect at the weight
        # index itself, which pins the whole alternation
        fork_odd = weight_index
        fork_even = n - 1 if weight_index == n else n
        pieces = []
        top = n // 2 if n % 2 == 0 else n // 2 + 1
        for i in range(top, 0, -1):
            tau = list(range(2 * i - 1, n - 1))
            fork = fork_even if i % 2 == 0 else fork_odd
            pieces.extend(tau + [fork])
        return tuple(pieces)
    if family == "E6":
        base = (5, 6, 1, 3, 4, 5, 2, 4, 3, 1)
        if weight_index == 1:
            return base
        mirror = {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
        return tuple(mirror[b] for b in base)
    return (5, 2, 4, 3, 7, 6, 5, 4, 1, 2, 3, 4, 5, 6, 7)


def column_set_word(entries) -> tuple[int, ...]:
    """A reduced word of the type-A coset with the sorted column set
    ``entries``: column j climbs from j to its entry a, s_{a-1} ... s_j."""
    word = []
    for j, a in enumerate(entries, start=1):
        word.extend(range(a - 1, j - 1, -1))
    return tuple(word)


def quiver_to_dot(q: Quiver, report: HoleReport) -> str:
    """Deterministic Graphviz rendering of a marked quiver.

    ``report`` is the hole report of ``q`` (:func:`classify_holes`).
    Vertices carry their simple-root index as label; unmarked vertices are
    dotted, real holes get a second periphery.  Byte-identical output for
    identical input is part of the contract, so everything is emitted in
    sorted position order.
    """
    real = set(report.real)
    lines = ["digraph quiver {", "  rankdir=TB;"]
    for i in range(q.n_vertices):
        attrs = [f'label="{q.label(i)}"', "shape=circle"]
        if i in real:
            attrs.append("peripheries=2")
        if i not in q.members:
            attrs.append("style=dotted")
        lines.append(f"  v{i} [{', '.join(attrs)}];")
    for a, b in sorted(q.arrows):
        style = "" if a in q.members and b in q.members else " [style=dotted]"
        lines.append(f"  v{a} -> v{b}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def commutation_moves(word, system: RootSystem) -> list[tuple[int, tuple[int, ...]]]:
    """All words one commutation move away, with the swapped position.

    Two adjacent letters may trade places when their simple roots do not
    pair; the position-swap bijection is then a quiver isomorphism, which
    is what makes the quiver a well-defined invariant of the element.
    """
    word = tuple(word)
    return [
        (p, word[:p] + (word[p + 1], word[p]) + word[p + 2 :])
        for p in range(len(word) - 1)
        if system.pairing(word[p], word[p + 1]) == 0
    ]


def quivers_isomorphic_under_swap(word_a, targets_a, word_b, targets_b, p) -> bool:
    """Check the canonical isomorphism for a commutation move at p, p+1
    between two words' quivers, given as target lists of one kind
    (:func:`word_targets`, or a :class:`Quiver`'s ``targets``).

    The order is the closure of the arrows, so matching arrows match it:
    the swap must carry the labels of ``word_a`` onto those of ``word_b``
    and the targets of each vertex onto the targets of its image, both
    sorted.  The swap moves only p and p + 1, so only a target list
    holding one of them changes, and only such a list is mapped and
    sorted again; arrows increase the position, so the lists after p + 1
    hold neither and are compared all at once.
    """
    sigma = list(range(len(word_a)))
    sigma[p], sigma[p + 1] = p + 1, p  # its own inverse
    if word_b != tuple(map(word_a.__getitem__, sigma)):
        return False
    if targets_b[p + 2 :] != targets_a[p + 2 :]:
        return False
    for i in range(p + 2):
        ts = targets_a[i]
        if p in ts or p + 1 in ts:
            if list(targets_b[sigma[i]]) != sorted(map(sigma.__getitem__, ts)):
                return False
        elif targets_b[sigma[i]] != ts:
            return False
    return True
