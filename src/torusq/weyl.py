"""Weyl-group combinatorics.

Symmetric-group elements are tuples in one-line notation, ``w[i]`` being the
image of position ``i+1``.  Words are tuples of simple-reflection indices.
A word acts on the right of a permutation letter by letter, nearest letter
first: ``word_to_perm((4, 5, 6, 3, 2, 1), 7)`` means
``s4*s5*s6*s3*s2*s1`` and comes out as ``(5, 1, 2, 3, 6, 7, 4)``.  In
practical terms, reading the word left to right and swapping the two values
in positions ``i`` and ``i+1`` of the one-line string reproduces exactly
that product, which is how everything here is computed.

The second half of the module works in the weight orbit of a minuscule
fundamental weight for any of the simply laced families: the bottom node
and canonical words by one walk of reflections, the type-A column sets in
closed form.  It never lists the orbit.  A request walks the bottom node's
canonical word, which builds the full quiver, and then the canonical word
of each node it prints, the answer's and its singular components';
:class:`torusq.quiver.MinusculeQuiver` reads those nodes off the order
ideals of that quiver.  Only the verification suites enumerate the orbit,
each node's canonical word taken from the one a level up: with
:class:`torusq.quiver.MinusculeModel`, which also walks one word, the
bottom's, and lists every node's ideal, or by
:func:`torusq.verify.canonical_words`, which walks down from the top and
lists the words alone.  Nodes are weights in fundamental coordinates;
every coordinate of an orbit weight is -1, 0 or 1, which is what makes
the canonical-word and length bookkeeping trivial.
"""

from bisect import insort

from . import grassmannian as gr
from .rootdata import check_minuscule, fundamental_weight


# ---------------------------------------------------------------------------
# permutations


def right_multiply(w, i):
    """w * s_i: swap the values in positions i and i+1 (1-based)."""
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"reflection index {i} out of range for n={len(w)}")
    line = list(w)
    line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def word_to_perm(word, n):
    """Product of simple reflections, rightmost letter first, in O(n + L)."""
    line = list(range(1, n + 1))
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"reflection index {i} out of range for n={n}")
        line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def pi_projection(w, i):
    """Sorted tuple of the first i values of w."""
    if not 0 <= i <= len(w):
        raise ValueError(f"projection index {i} out of range")
    return tuple(sorted(w[:i]))


def bruhat_leq(u, w):
    """Bruhat order on the symmetric group via sorted-prefix dominance.

    u <= w iff for every i each entry of the sorted first-i values of u is
    <= the corresponding entry for w.
    """
    if len(u) != len(w):
        raise ValueError("size mismatch")
    n = len(u)
    pu = []
    pw = []
    for i in range(n - 1):
        # maintain sorted prefixes incrementally
        insort(pu, u[i])
        insort(pw, w[i])
        for a, b in zip(pu, pw):
            if a > b:
                return False
    return True


# ---------------------------------------------------------------------------
# minuscule weight orbits


def _walk(cur, neighbours, s):
    """Reflect the weight ``cur`` in place at its smallest coordinate equal
    to ``s`` (+1 lowers, -1 raises) until none is left; the 1-based letters,
    in the order taken.  Reflecting at i sets ``cur[i]`` to -s and adds s
    at each Dynkin neighbour, so only i's neighbours can newly reach s: a
    sorted list holds the candidates, and a popped one whose coordinate has
    moved off s since is skipped.  O(N * (degree + log rank)) for N letters,
    where a scan of the whole weight per letter costs O(N * rank)."""
    ready = [i for i, c in enumerate(cur) if c == s]
    word = []
    while ready:
        i = ready.pop(0)
        if cur[i] != s:
            continue
        word.append(i + 1)
        cur[i] = -s
        for c in neighbours[i]:
            cur[c - 1] += s
            if cur[c - 1] == s:
                insort(ready, c - 1)
    return tuple(word)


class MinusculePoset:
    """The W-orbit of a minuscule fundamental weight, walked by reflections.

    Nodes are weight tuples in fundamental coordinates.  The top node is the
    dominant weight itself (the identity coset); going down one level
    subtracts a simple root, and the depth of a node is the Coxeter length
    of the minimal coset representative it stands for, the size of the
    node's order ideal in the quiver.  The class holds no list of the
    orbit; only the verification suites enumerate it
    (:class:`torusq.quiver.MinusculeModel`,
    :func:`torusq.verify.canonical_words`).  The bottom node, the
    longest element of W^P, comes from greedy descent: lower at the first
    coordinate equal to +1 until none is left (:func:`_walk`), which ends
    at the orbit's unique antidominant weight.
    """

    def __init__(self, system, weight_index):
        check_minuscule(system.family, system.rank, weight_index)
        self.system = system
        self.weight_index = weight_index
        self.top = fundamental_weight(system, weight_index)
        cur = list(self.top)
        _walk(cur, system.neighbours, 1)
        self.bottom = tuple(cur)

    def canonical_word(self, mu):
        """Canonical reduced word of the coset representative of ``mu``.

        Walk up to the top, always raising along the smallest simple root
        whose coordinate is -1; the letters in the order encountered spell
        the word left to right.  The walk stays in the W-orbit of ``mu``
        and ends at a weight with no coordinate -1, so it reaches the top
        exactly when ``mu`` lies in this orbit; otherwise ``ValueError``.
        It is the descent of the bottom node run upwards (:func:`_walk`).
        """
        mu = tuple(mu)
        cur = list(mu)
        word = _walk(cur, self.system.neighbours, -1) if len(cur) == self.system.rank else ()
        if tuple(cur) != self.top:
            raise ValueError(f"{mu} is not in the orbit")
        return word

    # convenience for type A, where cosets are index sets

    def check_indexset(self, entries):
        """``entries`` sorted, when they are a column set of this orbit
        (type A only): r distinct columns among 1..n, checked by
        :func:`torusq.grassmannian.check_indexset`."""
        if self.system.family != "A":
            raise ValueError("index sets only make sense in type A")
        return gr.check_indexset(sorted(entries), self.weight_index, self.system.rank + 1)

    def node_of_indexset(self, entries):
        """The node of a column set (type A only), in closed form.

        The node of a column set S is the weight of the basis vector e_S of
        the r-th exterior power: coordinate [j in S] - [j+1 in S] at
        j = 1..n-1.  Entries may come in any order.
        """
        columns = set(self.check_indexset(entries))
        return tuple(
            (j in columns) - (j + 1 in columns)
            for j in range(1, self.system.rank + 1)
        )
