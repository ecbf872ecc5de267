"""Combinatorial quivers of minuscule Schubert varieties.

Fix a reduced word (b_1, ..., b_N) for the longest coset representative of
W/W_P, P a minuscule maximal parabolic.  The quiver has one vertex per
letter position.  Writing s(i) for the next and p(i) for the previous
position carrying the same simple root as i, there is an arrow i -> j
whenever the roots pair nontrivially, i < j, and j < s(i) (no bound when
s(i) does not exist).  The partial order puts i below j when an oriented
path runs from j down to i; since arrows always increase the position
index, the early positions are the high ones.

Subvarieties enter as order ideals, kept as int bitmasks (bit i for
position i): the down-closed vertex subsets are in bijection with W^P
(read the ideal's letters in increasing position order to get a reduced
word for its element), and containment of ideals is the Bruhat order.

Hole bookkeeping, with the conventions pinned against the Young-diagram
singular locus on Grassmannians (the alternative readings fail on the
first singular example, the divisor in Gr(2,4)) and checked in every
family by the tests against criteria that use no holes: T-stable curves
for smoothness and the singular components, palindromic Poincare
polynomials and homogeneity for smoothness:

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
from itertools import accumulate, count
from operator import add, itemgetter

from .rootdata import RootSystem, check_minuscule, minuscule_orbit_size
from .weyl import MinusculePoset


class Quiver(tuple):
    """A quiver on the 0-based positions of a reduced word.  The order is
    kept only as the arrows, each vertex's targets in increasing position
    order.  An order ideal of it is an int bitmask (:meth:`ideals`), not a
    field.
    """

    __slots__ = ()

    def __new__(cls, system, word, targets):
        return tuple.__new__(cls, (system, word, targets))

    system, word, targets = map(property, map(itemgetter, range(3)))

    @property
    def n_vertices(self) -> int:
        return len(self.word)

    def hole_masks(self) -> tuple:
        """``(up, chains, partners)`` for :func:`classify_holes`.  Bit i of
        ``up[v]`` is set when i is weakly above v: ``up[t] |= up[k]`` for
        each arrow k -> t in position order, which completes ``up[k]``
        first.  ``chains[b]`` holds label b's vertices (a chain, lowest at
        the last position), ``partners[b]`` those of b and of its Dynkin
        neighbours.  O(arrows * N / 64) time, N^2 / 8 bytes at most."""
        up = [1 << v for v in range(len(self.word))]
        for k, ts in enumerate(self.targets):
            for t in ts:
                up[t] |= up[k]
        chains = [0] * (self.system.rank + 1)
        for i, b in enumerate(self.word):
            chains[b] |= 1 << i
        partners = chains[:]
        for b, neighbours in enumerate(self.system.neighbours, start=1):
            for c in neighbours:
                partners[b] |= chains[c]
        return up, chains, partners

    def ideals(self) -> list[tuple[int, int | None, int | None]]:
        """Every order ideal mask once, graded by size, as ``(ideal, v, k)``:
        v was added to the ideal listed at k, so it is maximal in ``ideal``;
        both are ``None`` for the empty ideal 0, which comes first.  Each
        ideal carries its sorted addable vertices: adding v can open only
        the sources of arrows into v, each when the ideal holds its targets'
        mask.  One int OR and one hash per edge of the lattice."""
        sources: list[list[int]] = [[] for _ in self.targets]
        for u, ts in enumerate(self.targets):
            for t in ts:
                sources[t].append(u)
        below = [sum(1 << t for t in ts) for ts in self.targets]
        found = [(0, None, None)]
        addable = [[v for v, ts in enumerate(self.targets) if not ts]]
        seen = {0}
        # breadth first: ``found`` and ``addable`` are the queue, read while they grow
        for k, ((ideal, _, _), free) in enumerate(zip(found, addable)):
            for v in free:
                grown = ideal | 1 << v
                if grown not in seen:
                    seen.add(grown)
                    found.append((grown, v, k))
                    rest = free.copy()
                    rest.remove(v)
                    for u in sources[v]:
                        if grown & below[u] == below[u]:
                            insort(rest, u)
                    addable.append(rest)
        return found


def word_targets(word, system: RootSystem) -> list[list[int]]:
    """The arrows of the quiver of a reduced word in one pass, O(N * degree):
    each vertex's list of targets, in increasing position order.

    Arrows: i -> j for i < j whose letters are Dynkin neighbours,
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
    """The quiver of a reduced word: the word and its :func:`word_targets`."""
    word = tuple(word)
    return Quiver(system, word, tuple(map(tuple, word_targets(word, system))))


class HoleReport(tuple):
    """What :func:`classify_holes` finds in one ideal."""

    __slots__ = ()

    def __new__(cls, real, virtual, essential, components):
        return tuple.__new__(cls, (real, virtual, essential, components))

    real, virtual, essential, components = map(property, map(itemgetter, range(4)))


# the coordinates a weight of a minuscule orbit may have
_MINUSCULE = frozenset((-1, 0, 1))


def positions(mask: int):
    """The set bits of a bitmask, in increasing order: the zero runs
    between them, read off its binary string and summed in C."""
    runs = bin(mask)[:1:-1].split("1")
    runs.pop()
    return map(add, accumulate(map(len, runs)), count())


def classify_holes(marked: int, masks) -> HoleReport:
    """Real, virtual and essential holes of an ideal mask ``marked``, and
    the component ideal masks of its singular locus: ``marked`` minus the
    up-set of each essential hole, in the order of ``essential``, distinct
    since no other real hole is weakly above an essential one.

    ``masks`` is the quiver's :meth:`Quiver.hole_masks`: an ideal mask w of
    a quiver q is classified by ``classify_holes(w, q.hole_masks())``.  The
    marked vertices of a label, its chain's bits in ``marked``, are the last
    of its chain, so its one candidate, whose p(i) is unmarked, is the
    lowest bit of the chain's marked mask, with its partners one popcount;
    a label with none marked leaves its last vertex, which has no s(i), a
    virtual hole.  O(rank * N / 64) past the masks: 0.11-0.12 ms at A100/omega_50
    --w minimal (2-vCPU VM, Python 3.11, best and median of 11, three runs)."""
    up, chains, partners = masks
    real, virtual, real_mask = [], [], 0
    for b, chain in enumerate(chains):
        top = marked & chain
        if top:
            top &= -top  # the highest marked vertex labelled b
            i = top.bit_length() - 1
            if (up[i] & marked & partners[b]).bit_count() == 3:  # i and two others
                real.append(i)
                real_mask |= top
        elif chain:
            virtual.append(chain.bit_length() - 1)
    real.sort()
    virtual.sort()
    essential = tuple(i for i in real if up[i] & real_mask == 1 << i)
    return HoleReport(
        tuple(real), tuple(virtual), essential,
        tuple(marked & ~up[h] for h in essential),
    )


class MinusculeQuiver:
    """One minuscule pair (system, weight) on its full quiver.

    Every Schubert variety is an order ideal mask of ``full``, the quiver
    of the canonical word of the poset's bottom node: :meth:`grow` turns a
    reduced word into its ideal, :meth:`word_of` reads an ideal's node off
    the quiver from each label's members and walks its canonical word, and
    :func:`classify_holes` gives its holes, smoothness and singular
    components, on ``masks`` (:meth:`Quiver.hole_masks`) built once.  A
    request costs time polynomial in the number N of quiver vertices
    (dim G/P), not in the orbit size.

    Both translations rest on one fact: when vertex v joins an ideal I,
    everything below v is already in I, so v is maximal in I + {v} and
    node(I + {v}) = s_{b_v}(node(I)) = node(I) - alpha_{b_v}, one level
    below node(I).  A coordinate +1 at b means the ideal has an addable
    vertex labelled b, and node(I) is the top less alpha_b once for each
    member of I labelled b.
    """

    def __init__(self, system: RootSystem, weight_index: int):
        self.system = system
        self.poset = MinusculePoset(system, weight_index)
        self.full = quiver_from_word(self.poset.canonical_word(self.poset.bottom), system)
        self.masks = self.full.hole_masks()

    def grow(self, word) -> int:
        """The order ideal of a reduced word of this orbit.

        Nearest letter first, each letter adds the one addable vertex with
        its label: the lowest of its chain outside the ideal, the highest
        bit of the label's chain mask less the vertices already added.  A
        letter that finds none does not lower the weight, and the word is
        refused (``ValueError``).
        """
        word, targets = tuple(word), self.full.targets
        free = dict(enumerate(self.masks[1]))  # each label's chain, less what is added
        inside = bytearray(len(targets))  # a flag per vertex, read as the mask's bits
        for b in reversed(word):
            chain = free.get(b, 0)
            v = chain.bit_length() - 1
            if not chain or not all(map(inside.__getitem__, targets[v])):
                raise ValueError(f"{word} is not a reduced word of letters "
                                 f"1..{self.system.rank} in this orbit")
            inside[v] = 1
            free[b] = chain ^ 1 << v
        return int(inside[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2)

    def word_of(self, ideal: int) -> tuple[int, ...]:
        """The canonical word of an order ideal: that of its node, which is
        top - sum_b |I & chain_b| * alpha_b, each label counted by one
        popcount of its chain, with alpha_b 2 at b and -1 at each Dynkin
        neighbour.  O(rank * N / 64) for the counts, then the walk of
        :meth:`~torusq.weyl.MinusculePoset.canonical_word`,
        O(|I| * (degree + log rank))."""
        counts = [(ideal & chain).bit_count() for chain in self.masks[1]]
        node = [
            t - 2 * counts[b] + sum(map(counts.__getitem__, neighbours))
            for b, (t, neighbours) in enumerate(zip(self.poset.top, self.system.neighbours), 1)
        ]
        return self.poset.canonical_word(node)


class MinusculeModel(MinusculeQuiver):
    """The orbit of a minuscule pair, listed once from the quiver's ideals.

    This is the verification side.  ``ideals`` maps every node, in graded
    order, to its ideal mask, and ``nodes`` lists the nodes (independent
    oracle: ``ideal_node_dictionary_by_words`` in ``tests/oracles.py``).
    :meth:`holes` keeps each ideal's :func:`classify_holes` report, so the
    suites classify an ideal once; :meth:`semistable_in_smooth` is the
    quiver form of the separation criterion.

    ``Quiver.ideals`` lists I before I + {v}, with the index of I; once
    node(I) is checked to be 1 at b = b_v, node(I + {v}) = s_b(node(I)):
    coordinate b goes to -1 and each Dynkin neighbour of b gains 1, the
    step of :func:`~torusq.weyl._walk`.  In the same pass each node's
    canonical word takes O(rank), from the word of its canonical parent
    s_i(node), i its first coordinate -1, where the walk of
    :meth:`~torusq.weyl.MinusculePoset.canonical_word` goes next: the
    inverse step, coordinate i back to 1 and each neighbour less 1.  The
    build checks (``AssertionError``) that each letter lowers the weight,
    that every coordinate is -1, 0 or 1, that each canonical parent was
    listed before its node, that no node gets two ideals, that there are
    as many nodes as the closed-form orbit size, and that the full ideal's
    node is the poset's bottom.
    """

    def __init__(self, system: RootSystem, weight_index: int):
        super().__init__(system, weight_index)
        listed = self.full.ideals()
        labels, neighbours = self.full.word, system.neighbours
        nodes = [self.poset.top]
        self.words: dict[tuple[int, ...], tuple[int, ...]] = {self.poset.top: ()}
        for _, v, k in listed[1:]:
            node, b = list(nodes[k]), labels[v]
            if node[b - 1] != 1:
                raise AssertionError(f"letter {b} does not lower {nodes[k]}")
            node[b - 1] = -1
            for c in neighbours[b - 1]:
                node[c - 1] += 1
            nodes.append(tuple(node))
            if not _MINUSCULE.issuperset(node):
                raise AssertionError(f"non-minuscule coordinate in orbit: {nodes[-1]}")
            try:
                i = node.index(-1) + 1
                node[i - 1] = 1
                for c in neighbours[i - 1]:
                    node[c - 1] -= 1
                self.words[nodes[-1]] = (i,) + self.words[tuple(node)]
            except (ValueError, KeyError):
                raise AssertionError(f"the canonical parent of {nodes[-1]} is not listed") from None
        self.ideals = {node: ideal for node, (ideal, _, _) in zip(nodes, listed)}
        self.nodes = list(self.ideals)
        if len(self.nodes) != len(listed):
            raise AssertionError("ideal/coset correspondence is not a bijection")
        size = minuscule_orbit_size(system.family, system.rank, weight_index)
        if len(self.nodes) != size:
            raise AssertionError(f"{len(self.nodes)} ideals for {size} coset elements")
        if nodes[-1] != self.poset.bottom:  # graded: the full ideal comes last
            raise AssertionError("the full ideal is not the bottom node")
        self._holes: dict[int, HoleReport] = {}

    def holes(self, ideal: int) -> HoleReport:
        """The hole report of one of the listing's ideals, classified once."""
        report = self._holes.get(ideal)
        if report is None:
            report = self._holes[ideal] = classify_holes(ideal, self.masks)
        return report

    def semistable_in_smooth(self, w_ideal: int, v_ideal: int) -> bool:
        """Criterion: every essential hole of Q_w lies in the ideal of v.

        ``v_ideal`` is the minimal element with semistable points;
        ``w_ideal`` must contain it, otherwise there is nothing to test.
        """
        if v_ideal & ~w_ideal:
            raise ValueError("w does not dominate v: no semistable points")
        return all(v_ideal >> h & 1 for h in self.holes(w_ideal).essential)


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


def quiver_to_dot(q: Quiver, ideal: int, report: HoleReport) -> str:
    """Deterministic Graphviz rendering of the quiver ``q`` with the order
    ideal mask ``ideal`` marked.

    ``report`` is the hole report of ``ideal`` (:func:`classify_holes`).
    Vertices carry their simple-root index as label; unmarked vertices are
    dotted, real holes get a second periphery.  Byte-identical output for
    identical input is part of the contract, so everything is emitted in
    sorted position order.
    """
    real, members = set(report.real), set(positions(ideal))
    lines = ["digraph quiver {", "  rankdir=TB;"]
    for i, b in enumerate(q.word):
        attrs = [f'label="{b}"', "shape=circle"]
        if i in real:
            attrs.append("peripheries=2")
        if i not in members:
            attrs.append("style=dotted")
        lines.append(f"  v{i} [{', '.join(attrs)}];")
    for a, ts in enumerate(q.targets):
        for b in ts:
            style = "" if a in members and b in members else " [style=dotted]"
            lines.append(f"  v{a} -> v{b}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def commutation_moves(word, system: RootSystem) -> list[tuple[int, tuple[int, ...]]]:
    """All words one commutation move away, with the swapped position.

    Two adjacent letters may trade places when their simple roots do not
    pair; the position-swap bijection is then a quiver isomorphism, which
    is what makes the quiver a well-defined invariant of the element.
    """
    word, neighbours, moves = tuple(word), system.neighbours, []
    for p, b in enumerate(word[1:]):
        a = word[p]
        if a != b and b not in neighbours[a - 1]:
            moves.append((p, word[:p] + (b, a) + word[p + 2 :]))
    return moves


def quivers_isomorphic_under_swap(word_a, targets_a, word_b, targets_b, p) -> bool:
    """Check the canonical isomorphism for a commutation move at p, p+1
    between two words' quivers, given as target lists of one kind
    (:func:`word_targets`, or a :class:`Quiver`'s ``targets``).

    Matching arrows match the order, their closure: the swap must carry
    the labels of ``word_a`` onto those of ``word_b`` and each vertex's
    sorted targets onto its image's.  Only a list holding p or p + 1
    changes, and is mapped and sorted again; arrows increase the
    position, so the lists after p + 1 are compared all at once.
    """
    if word_b != word_a[:p] + (word_a[p + 1], word_a[p]) + word_a[p + 2 :]:
        return False
    if targets_b[p + 2 :] != targets_a[p + 2 :]:
        return False
    swap = {p: p + 1, p + 1: p}  # the positions it moves, its own inverse
    for i, ts in enumerate(targets_a[: p + 2]):
        if p in ts or p + 1 in ts:
            if list(targets_b[swap.get(i, i)]) != sorted(map(swap.get, ts, ts)):
                return False
        elif targets_b[swap.get(i, i)] != ts:
            return False
    return True
