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
and canonical words by walks of reflections, the type-A column sets in
closed form.  It never lists the orbit.  A request reads one walk, the
bottom node's canonical word, which builds the full quiver;
:class:`torusq.quiver.MinusculeQuiver` answers the rest on the order
ideals of that quiver.  Only the verification suites enumerate the orbit,
with :class:`torusq.quiver.MinusculeModel`, which walks each node's
canonical word once.  Nodes are weights in fundamental
coordinates; every coordinate of an orbit weight is -1, 0 or 1, which is
what makes the canonical-word and length bookkeeping trivial.
"""

from bisect import insort

from .rootdata import fundamental_weight, minuscule_weights, reflect


# ---------------------------------------------------------------------------
# permutations


def identity_perm(n):
    return tuple(range(1, n + 1))


def check_perm(w):
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"{w!r} is not a permutation of 1..{n}")


def right_multiply(w, i):
    """w * s_i: swap the values in positions i and i+1 (1-based)."""
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"reflection index {i} out of range for n={len(w)}")
    line = list(w)
    line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def word_to_perm(word, n):
    """Product of simple reflections, rightmost letter first, in O(n + L)."""
    line = list(identity_perm(n))
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"reflection index {i} out of range for n={n}")
        line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def descents(w):
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def reduced_word(w):
    """Some reduced word for w (the descent-stripping one)."""
    check_perm(w)
    letters = []
    cur = w
    while True:
        ds = descents(cur)
        if not ds:
            break
        letters.append(ds[0])
        cur = right_multiply(cur, ds[0])
    letters.reverse()
    return tuple(letters)


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


class MinusculePoset:
    """The W-orbit of a minuscule fundamental weight, walked by reflections.

    Nodes are weight tuples in fundamental coordinates.  The top node is the
    dominant weight itself (the identity coset); going down one level
    subtracts a simple root, and the depth of a node is the Coxeter length
    of the minimal coset representative it stands for, the size of the
    node's order ideal in the quiver.  The class holds no list of the
    orbit; only :class:`torusq.quiver.MinusculeModel` enumerates it, as
    the list of nodes the verification suites walk.  The bottom node, the
    longest element of W^P, comes from greedy descent: lower at the first
    coordinate equal to +1 until none is left, which ends at the orbit's
    unique antidominant weight.
    """

    def __init__(self, system, weight_index):
        if weight_index not in minuscule_weights(system.family, system.rank):
            raise ValueError(
                f"omega_{weight_index} is not minuscule for {system}"
            )
        self.system = system
        self.weight_index = weight_index
        self.top = fundamental_weight(system, weight_index)
        cur = self.top
        while 1 in cur:
            cur = reflect(system, cur, cur.index(1) + 1)
        self.bottom = cur

    def canonical_word(self, mu):
        """Canonical reduced word of the coset representative of ``mu``.

        Walk up to the top, always raising along the smallest simple root
        whose coordinate is -1; the letters in the order encountered spell
        the word left to right.  The walk stays in the W-orbit of ``mu``
        and ends at a weight with no coordinate -1, so it reaches the top
        exactly when ``mu`` lies in this orbit; otherwise ``ValueError``.
        Raising along i adds alpha_i to one list in place: 2 at i, -1 at
        each Dynkin neighbour of i.
        """
        mu = tuple(mu)
        word = []
        cur = list(mu)
        if len(cur) == self.system.rank:
            while -1 in cur:
                i = cur.index(-1)
                word.append(i + 1)
                cur[i] = 1
                for c in self.system.neighbours[i]:
                    cur[c - 1] -= 1
        if tuple(cur) != self.top:
            raise ValueError(f"{mu} is not in the orbit")
        return tuple(word)

    # convenience for type A, where cosets are index sets

    def check_indexset(self, entries):
        """``entries`` sorted, when they are a column set of this orbit
        (type A only): r distinct columns among 1..n."""
        if self.system.family != "A":
            raise ValueError("index sets only make sense in type A")
        n = self.system.rank + 1
        entries = tuple(sorted(entries))
        columns = set(entries)
        if (
            len(columns) != len(entries)
            or len(entries) != self.weight_index
            or not columns <= set(range(1, n + 1))
        ):
            raise ValueError(f"{entries} is not a node of this orbit")
        return entries

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
