"""Span builders the tests share; they use only the package's public types."""

import numpy as np

from decal.kernel import KernelSpec, RkhsElement, as_outcomes


def feature(spec: KernelSpec, y) -> RkhsElement:
    """The single feature map phi(y): one anchor with coefficient 1."""
    return RkhsElement(spec, as_outcomes(y, spec.dim), np.ones(1))
