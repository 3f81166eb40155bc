"""Site-by-site placement of a CLS stencil: the reference that the tests
hold ``flatband.reconstruct_from_weights`` and the CLS emitters against."""

import numpy as np

from flatqed.lattice import site_index


def cls_vector(model, cell, cls=None):
    """Site-space vector of the CLS centered at ``cell``, one stencil entry
    at a time (the model's own stencil unless ``cls`` is given)."""
    if cls is None:
        cls = model.cls
    if isinstance(cell, (int, np.integer)):
        cell = (int(cell),)
    phi = np.zeros(model.n_sites)
    for sub, off, coeff in cls.stencil:
        shifted = tuple(c + o for c, o in zip(cell, off))
        phi[site_index(model, shifted, sub)] += coeff
    return phi
