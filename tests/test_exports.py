import sgcorona
from sgcorona import spectra


def test_public_names_resolve_once():
    names = sgcorona.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(sgcorona, name), name
    # the package exports the Spectrum-valued root finder, not the
    # flat-list one in polys
    assert sgcorona.real_roots is spectra.real_roots
