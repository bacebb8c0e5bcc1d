"""Random Hecke-algebra and graded-algebra elements for the tests.

They draw through ``rand_weight`` and ``rand_polynomial`` of
:mod:`heckeverify.verify`, so a seeded ``random.Random`` gives the same
elements as the verifier's sampling recipe.
"""

from heckeverify.affine_hecke import HeckeElement
from heckeverify.graded_hecke import GradedElement
from heckeverify.lattice_algebra import GroupAlgebraElement, LaurentScalar, LS_ONE
from heckeverify.verify import rand_polynomial, rand_weight

from weyl_group import weyl_elements


def rand_laurent(rng):
    out = LaurentScalar()
    for _ in range(rng.randint(1, 2)):
        c = rng.randint(-3, 3) or 1
        out = out + LaurentScalar({rng.randint(-2, 2): c})
    return out if out else LS_ONE


def rand_group_algebra(rng, n):
    out = GroupAlgebraElement()
    for _ in range(rng.randint(1, 2)):
        out = out + GroupAlgebraElement.theta(rand_weight(rng, n), rand_laurent(rng))
    return out if out else GroupAlgebraElement.one(n)


def rand_hecke(rng, datum):
    out = HeckeElement(datum)
    for _ in range(rng.randint(1, 2)):
        w = rng.choice(weyl_elements(datum))
        out = out + HeckeElement(datum, {w: rand_group_algebra(rng, datum.rank)})
    return out if out.coeffs else HeckeElement.one(datum)


def rand_graded(rng, datum, order):
    out = GradedElement(datum, order)
    for _ in range(rng.randint(1, 2)):
        w = rng.choice(weyl_elements(datum))
        out = out + GradedElement(datum, order, {w: rand_polynomial(rng, datum.rank, order)})
    return out if out.coeffs else GradedElement.one(datum, order)
