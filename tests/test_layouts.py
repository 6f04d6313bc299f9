"""The predictor.json and witness_loss.json layouts.

`cut-2` writes every float array as base64 text of its C-order little-endian
float64 bytes, which reads back bit for bit.  `cut-1` wrote the same fields
as nested lists; the files under data/ were written in that layout by the
version before `cut-2` and must load to the bits their calibrations give.
"""

import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from decal import model
from decal.calibrate import CalibConfig, run_calibration
from decal.cli import CALIBRATE_SCHEMA, _calib_config, _planted_from_config, parse_config
from decal.kernel import KernelSpec
from decal.model import (
    PREDICTOR_FORMAT, Field, LossFunction, Predictor, SimilarityBase, load_predictor,
    loss_estimates, read_field, save_predictor,
)
from decal.synth import (
    AffineMap, ContextSpec, SynthSpec, SyntheticSource, make_piecewise_linear_loss,
)
from docs import CUT1, as_cut1, decode
from spans import spy

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
)


@given(data=st.data(), arr=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                           max_side=5), elements=FLOATS))
@settings(max_examples=200)
def test_an_array_reads_back_bit_for_bit(data, arr):
    """What `_array_doc` writes, through JSON text, `read_field` reads back
    with the same shape and bytes, -0.0, subnormals and +-1e308 included,
    with any one length of an array with entries left to the reader; an
    array of no entries is written as lists, which keep its shape."""
    written = json.loads(json.dumps({"a": model._array_doc(arr)}))
    if arr.size:
        assert isinstance(written["a"], str)
        assert decode(written["a"], *arr.shape).tobytes() == arr.tobytes()
    else:
        assert written["a"] == arr.tolist()
    # an open length is at least 1, so an array of no entries keeps all its lengths
    axis = data.draw(st.sampled_from([None, *range(arr.ndim)] if arr.size else [None]))
    shape = tuple(None if i == axis else n for i, n in enumerate(arr.shape))
    got = read_field(written, "a", Field("array", shape=shape))
    assert got.shape == arr.shape and got.dtype == np.float64
    assert got.tobytes() == arr.tobytes()


@given(arr=arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(1, 3)), elements=FLOATS))
def test_a_non_contiguous_array_is_written_in_c_order(arr):
    """A transposed view, as `coeffs`, `BU` and `ZB` are written, gives the
    bytes of its C-order copy."""
    assert model._array_doc(arr.T) == model._array_doc(np.ascontiguousarray(arr.T))


def binary(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


@pytest.mark.parametrize("value, shape, message", [
    ("not base64!", (None,), "base64"),
    ("AAAA AAAAAAA", (None,), "base64"),
    ("AAAAAAAAAAA", (None,), "base64"),
    ("AAAAAAAAAA==AAAA", (None,), "base64"),
    ("AAAAAAAAAAB=", (None,), "base64"),  # padding bits set: not what the writer writes
    ("éAAAAAAAAAA=", (None,), "base64"),
    (binary([1.0])[:-4] + "AA==", (None,), "8-byte"),
    ("A" * 16, (None,), "8-byte"),
    (binary([]), (None, 2), "None 1[+]"),
    (binary([]), (2, None), "None 1[+]"),
    ("", (0, None), "None 1[+]"),
    (binary([1.0, 2.0, 3.0]), (None, 2), "shape"),
    (binary([1.0, 2.0, 3.0]), (2,), "shape"),
    (binary([1.0, 2.0, 3.0]), (0, None), "shape"),
    (binary([1.0, float("nan")]), (None,), "finite"),
    (binary([float("inf")]), (None,), "finite"),
    (binary([-float("inf"), 1.0]), (2,), "finite"),
])
def test_a_binary_array_is_refused_by_name(value, shape, message):
    with pytest.raises(ValueError, match=f"'a': .*{message}"):
        read_field({"a": value}, "a", Field("array", shape=shape))


def test_a_binary_array_keeps_the_range_and_domain_checks():
    spec = KernelSpec("min", 1, 1.5)
    unit = Field("array", shape=(None,), minimum=0.0)
    with pytest.raises(ValueError, match="'unit': must be >= 0"):
        read_field({"unit": binary([1.0, -0.5])}, "unit", unit)
    with pytest.raises(ValueError, match="'U'.*lie in"):
        read_field({"U": binary([0.5, 1.5])}, "U", Field("array", domain=spec))
    assert read_field({"U": binary([0.5, 0.0])}, "U", Field("array", domain=spec)).shape == (2, 1)


# cut-1 files written before the cut-2 layout, and the runs that wrote them


def planted(algorithm):
    """The predictor `decal calibrate --config configs/planted_bias.json`
    computes, with the config's algorithm set to `algorithm`."""
    doc = json.loads((ROOT / "configs" / "planted_bias.json").read_text())
    cfg = parse_config(dict(doc, algorithm=algorithm), CALIBRATE_SCHEMA)
    inst = _planted_from_config(cfg)
    return run_calibration(inst.predictor, inst.source(cfg["seed"]), _calib_config(cfg))[0]


def continuous_chain():
    """A three-patch alg2 chain over continuous outcomes, on a similarity
    base of 16 training points, in which patches 1 and 2 carry earlier
    witnesses as their lossprimes."""
    spec, ctx = KernelSpec("min", 1, 1.5), ContextSpec("uniform", 2)
    amap = AffineMap(np.array([[0.4, 0.3]]), np.array([0.1]), noise_scale=0.1)
    rng = np.random.default_rng(0)
    X = ctx.sample(16, rng)
    p0 = Predictor(spec, SimilarityBase(spec, amap.sample(X, spec, rng) * 0.7, X, 0.3))
    config = CalibConfig(epsilon=0.05, beta=8.0, R1=1.0, R2=spec.R2, n_actions=2,
                         algorithm="alg2", max_iters=3, audit_batch_size=24, pool_size=2,
                         heldout_size=64, seed=0)
    source = SyntheticSource(SynthSpec(spec, ctx, amap, n=1, seed=1))
    return run_calibration(p0, source, config)[0]


CUT1_FILES = {
    "cut1_planted_alg1.json": lambda: planted("alg1"),
    "cut1_planted_alg2.json": lambda: planted("alg2"),
    "cut1_continuous_alg2.json": continuous_chain,
}


def carried(p):
    """p's lossprimes that are witnesses cut on an earlier prefix of its chain."""
    plan = p._plan
    return [rec.witness_lossprime for t, rec in enumerate(p.patches)
            if plan.descends(form := rec.witness_lossprime.span.form)
            and len(form.lineage[1]) < t]


@pytest.mark.parametrize("name", sorted(CUT1_FILES))
def test_a_cut1_file_loads_to_the_bits_of_its_run(name, tmp_path):
    """A cut-1 file, its cut-2 re-save reloaded, and a rerun of the seeded
    calibration that wrote it give the same loss estimates, bit for bit, on
    fixed contexts; the re-save is cut-2, about half the bytes, and its
    arrays decoded to lists give the cut-1 text back exactly."""
    path = DATA / name
    old_text = path.read_text()
    assert json.loads(old_text)["format"] == CUT1
    with spy(LossFunction, "values") as dense:
        cut1 = load_predictor(path)
    lossprimes = carried(cut1)
    assert not [args for args in dense if any(args[0] is lp for lp in lossprimes)]
    save_predictor(tmp_path / "cut2.json", cut1)
    text = (tmp_path / "cut2.json").read_text()
    doc = json.loads(text)
    assert doc["format"] == PREDICTOR_FORMAT != CUT1
    assert len(text) < 0.6 * len(old_text)
    assert json.dumps(as_cut1(doc), separators=(",", ":"), sort_keys=True) + "\n" == old_text
    cut2 = load_predictor(tmp_path / "cut2.json")
    rerun = CUT1_FILES[name]()
    assert [len(p.patches) for p in (cut2, rerun)] == [len(cut1.patches)] * 2
    assert len(carried(rerun)) == len(lossprimes)
    if "continuous" in name:
        assert len(lossprimes) == 2  # matched to their patches by value on load
    g = np.random.default_rng(4)
    X = g.standard_normal((600, 2))
    loss = make_piecewise_linear_loss([0.8, -0.3], [-0.5, 0.6], [0.3, 0.7], 2, cut1.kernel)
    want = loss_estimates(rerun, X, loss)
    assert np.all(np.isfinite(want))
    for p in (cut1, cut2):
        assert loss_estimates(p, X, loss).tobytes() == want.tobytes()
