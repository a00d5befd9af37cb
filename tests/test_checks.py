"""Each input check of the library raises its named error class.

One row per check that no other test reaches: the call, the error class it
must raise and a fragment of the message.
"""

import numpy as np
import pytest

from dcpreg import autodiff as ad, dataio, dcpnet, geometry as geo, train
from dcpreg.errors import DegenerateCloudError, InvalidInputError, ShapeError


def t(*shape):
    return ad.tensor(np.ones(shape))


def cloud(n=4):
    return dataio.PointCloud(np.arange(3.0 * n).reshape(n, 3))


CHECKS = {
    "tensor-dtype": (lambda: ad.Tensor(np.ones(2), dtype=np.int32), InvalidInputError, "unsupported dtype"),
    "matmul-1d": (lambda: ad.matmul(t(3), t(3, 2)), ShapeError, "matmul needs ndim >= 2"),
    "concat-nothing": (lambda: ad.concat([]), InvalidInputError, "at least one tensor"),
    "gather-float-index": (lambda: ad.gather(t(3, 2), np.array([0.5])), InvalidInputError, "must be integral"),
    "gather-index-range": (lambda: ad.gather(t(3, 2), np.array([3])), ShapeError, "out of range"),
    "gather-negative-index": (lambda: ad.gather(t(3, 2), np.array([-1])), ShapeError, "out of range"),
    "affine-bias": (lambda: ad.affine(t(2, 3), t(3, 4), t(3)), ShapeError, "affine: incompatible shapes"),
    "batch-norm-gamma": (lambda: ad.batch_norm(t(4, 3), t(2), t(3), None, True), ShapeError, "gamma/beta"),
    "layer-norm-gain": (lambda: ad.layer_norm(t(2, 3), t(3), t(2)), ShapeError, "gain/bias"),
    "edgeconv-graph-rows": (
        lambda: dcpnet.edgeconv_layer(t(4, 3), np.zeros((3, 2), dtype=int), None, "embed.l1"),
        ShapeError, "graph rows 3 != feature rows 4",
    ),
    "attention-dims": (lambda: dcpnet.transformer_attention(t(1, 4, 8), t(1, 5, 6), None), ShapeError, "dims differ"),
    "pointer-dims": (lambda: dcpnet.pointer_softmatch(t(1, 4, 8), t(1, 5, 6)), ShapeError, "dims differ"),
    "soft-correspondence-fit": (
        lambda: dcpnet.soft_correspondence(t(1, 4, 5), [cloud(4)]), ShapeError, "does not fit target clouds",
    ),
    "points-shape": (
        lambda: geo.apply_transform(geo.RigidTransform.identity(), np.zeros((4, 2))),
        InvalidInputError, "expected an (N, 3) point array",
    ),
    "procrustes-lengths": (
        lambda: geo.procrustes_solve(np.zeros((4, 3)), np.zeros((5, 3))), InvalidInputError, "differ in length",
    ),
    "transform-shape": (lambda: geo.RigidTransform(np.eye(2), np.zeros(3)), InvalidInputError, "must be 3x3"),
    "transform-finite": (
        lambda: geo.RigidTransform(np.eye(3), np.array([np.nan, 0.0, 0.0])), InvalidInputError, "must be finite",
    ),
    "adam-gradient-shape": (
        lambda: train.adam_step({"w": t(2, 3)}, {"w": np.zeros((3, 2))}, train.OptimizerState()),
        ShapeError, "gradient shape",
    ),
    "pool-nothing": (lambda: train.pool_metrics([]), ValueError, "empty error list"),
    "train-nothing": (lambda: train.train(dcpnet.ModelConfig(), []), ValueError, "training set is empty"),
    "normalize-empty": (
        lambda: dataio.normalize_unit_sphere(dataio.PointCloud(np.zeros((0, 3)))), DegenerateCloudError, "empty cloud",
    ),
    "noise-sigma": (
        lambda: dataio.add_clipped_gaussian_noise(cloud(), -0.1, 0.05, 0), InvalidInputError, "sigma must be",
    ),
    "noise-clip": (lambda: dataio.add_clipped_gaussian_noise(cloud(), 0.01, 0.0, 0), InvalidInputError, "clip must be"),
    "shape-kind": (lambda: dataio.make_shape_mesh("sphere", 0), InvalidInputError, "unknown shape kind 'sphere'"),
    "split-mode": (
        lambda: dataio.dataset_split([cloud()], "bogus", 0.5, seed=0), InvalidInputError, "unknown split mode 'bogus'",
    ),
}


@pytest.mark.parametrize("call,error,message", CHECKS.values(), ids=CHECKS.keys())
def test_check_raises_its_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)
