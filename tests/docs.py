"""Predictor and loss documents in the `cut-1` layout, which wrote every
array as nested lists: `as_cut1` rewrites a `cut-2` document, whose arrays
are base64 text of C-order little-endian float64 bytes, decoding each by
the README's two lines and the field's shape."""

import base64
import copy

import numpy as np

CUT1 = "decal.predictor/cut-1"


def decode(text: str, *shape) -> np.ndarray:
    """The array of one `cut-2` field's text; -1 in `shape` as numpy reads it."""
    return np.frombuffer(base64.b64decode(text), "<f8").reshape(shape)


def _lists(value, *shape):
    """A field as nested lists: an array of no entries is written so already."""
    return value if isinstance(value, list) else decode(value, *shape).tolist()


def _span(doc: dict, dim: int) -> None:
    if "cut" in doc:
        cut = doc["cut"]
        cut["U"] = _lists(cut["U"], -1, dim)
        cut["BU"] = _lists(cut["BU"], -1, len(cut["U"]))
        cut["ZB"] = _lists(cut["ZB"], len(cut["BU"]), -1)
        cut["unit"] = _lists(cut["unit"], -1)
    else:
        doc["anchors"] = _lists(doc["anchors"], -1, dim)
        doc["coeffs"] = _lists(doc["coeffs"], -1, len(doc["anchors"]))


def _base(doc: dict, dim: int) -> None:
    if doc["kind"] == "constant":
        el = doc["element"]
        el["anchors"] = _lists(el["anchors"], -1, dim)
        el["coeffs"] = _lists(el["coeffs"], -1)
    elif doc["kind"] == "similarity":
        doc["anchors"] = _lists(doc["anchors"], -1, dim)
        doc["contexts"] = _lists(doc["contexts"], len(doc["anchors"]), -1)
    else:  # logit_mixture
        doc["support"] = _lists(doc["support"], -1, dim)
        doc["weight_matrix"] = _lists(doc["weight_matrix"], len(doc["support"]), -1)
        doc["weight_offset"] = _lists(doc["weight_offset"], -1)
        doc["shift_coeffs"] = _lists(doc["shift_coeffs"], -1)


def as_cut1(doc: dict) -> dict:
    """A copy of a `cut-2` predictor document, or of a loss file document,
    with every array as nested lists and a predictor's format `cut-1`."""
    doc = copy.deepcopy(doc)
    dim = doc["kernel"]["dim"]
    if "loss" in doc:
        _span(doc["loss"], dim)
        return doc
    doc["format"] = CUT1
    _base(doc["base"], dim)
    for patch in doc["patches"]:
        _span(patch["witness_lossprime"], dim)
        _span(patch, dim)
        if "mixing" in patch:
            lossprime = patch["witness_lossprime"]  # one coefficient list per action
            a = len(lossprime["cut"]["unit"] if "cut" in lossprime else lossprime["coeffs"])
            patch["mixing"] = _lists(patch["mixing"], a, a)
    return doc
