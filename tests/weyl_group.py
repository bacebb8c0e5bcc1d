"""Every element of a finite Weyl group, for the tests that walk or sample W.

The library makes each element on first use and never lists W; the tests
that need all of it search it here, by left multiplication, once per datum.
Products and inverses are left multiplications along a word, too.
"""

import weakref

_ELEMENTS = weakref.WeakKeyDictionary()


def weyl_elements(datum):
    """The elements of W, sorted by (length, word), found once per datum."""
    elements = _ELEMENTS.get(datum)
    if elements is None:
        found = [datum.identity]
        seen = set(found)
        for w in found:     # the list grows as it is read
            for i in range(datum.rank):
                u = datum.left_mul(i, w)
                if u not in seen:
                    seen.add(u)
                    found.append(u)
        elements = _ELEMENTS[datum] = tuple(sorted(found, key=lambda w: (w.length, w.word)))
    return elements


def mul(datum, u, w):
    """u * w, by left multiplication along the word of u."""
    for i in reversed(u.word):
        w = datum.left_mul(i, w)
    return w


def inverse(datum, w):
    """w^-1, by left multiplication along the word of w."""
    v = datum.identity
    for i in w.word:
        v = datum.left_mul(i, v)
    return v
