"""Symbolic verification of affine Hecke algebra identities.

An exact engine for the affine Hecke algebra in Bernstein normal form, its
graded version over truncated power series, the Lusztig morphisms between
them, and the involution pipelines whose agreement is the point of the
package.  All arithmetic is exact (integers, rationals); completed-algebra
identities are checked modulo a chosen truncation degree.
"""

__version__ = "0.1.0"
