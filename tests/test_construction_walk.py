"""The library maps on every T_w, and why ``morphisms`` need not walk W.

``morphisms`` checks the evaluators of L_r, L_l, m and the Fourier map on
T_e and the T_s only.  Here the construction walk (construction_walk.py)
checks them on all of W for ranks up to 3, and a recording run pins that
the suites never evaluate a map on T_w with l(w) >= 2, so the scoped
check covers every image a verdict reads.
"""

import pytest

from heckeverify import lusztig, verify
from heckeverify.normal_form import GeneratorImages
from heckeverify.root_datum import build_root_datum, cartan_matrix
from heckeverify.verify import run_suites

from construction_walk import walk_failure


@pytest.mark.parametrize("family, rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_library_maps_are_products_of_generator_images_on_every_tw(family, rank):
    datum = build_root_datum(cartan_matrix(family, rank))
    assert walk_failure(datum, 6) is None


@pytest.mark.parametrize("family, rank, order", [("A", 2, 6), ("B", 2, 5), ("G", 2, 3)])
def test_suites_evaluate_no_map_on_tw_of_length_two_or_more(monkeypatch, family, rank, order):
    # if a suite came to read a longer image, the narrower morphisms check
    # would no longer cover it; this fails first
    requested, mapped = [], []
    image = GeneratorImages.image

    def recording_image(self, w, order=None):
        requested.append(w)
        return image(self, w, order)

    def recording_fourier(a):
        mapped.extend(a.coeffs)
        return fourier(a)

    fourier = verify.fourier_map
    monkeypatch.setattr(GeneratorImages, "image", recording_image)
    monkeypatch.setattr(verify, "fourier_map", recording_fourier)
    monkeypatch.setattr(lusztig, "fourier_map", recording_fourier)
    reps = run_suites(build_root_datum(cartan_matrix(family, rank)), ["all"], order=order)
    assert [rep.status for rep in reps] == ["pass"] * len(verify.SUITES)
    assert {w.length for w in requested} == {0, 1}
    assert {w.length for w in mapped} == {0, 1}
