"""The benchmark's layer trace patches dcpreg attributes by name; a rename
or a call that stops going through the module attribute would break
``benchmark/run.py --trace 1`` or silently zero a metric. Its smoke tests
live outside ``testpaths``, so these checks keep the names honest here."""

import importlib.util
from pathlib import Path

import numpy as np

from dcpreg import autodiff, dcpnet, geometry, icp

TRACING_PY = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable():
    tracing = load_tracing()
    for name, (owner, attr) in tracing.SPAN_TARGETS.items():
        assert callable(getattr(owner, attr, None)), name
    for op in tracing.OPS:
        assert callable(getattr(autodiff, op, None)), op


def test_tracer_sees_one_query_and_one_solve_per_icp_iteration(rng):
    """Installed around an ICP run, the tracer sees one query_many per
    history entry, one procrustes_solve and one svd3 per alignment step,
    and puts every original back on exit."""
    tracing = load_tracing()
    originals = {name: getattr(owner, attr) for name, (owner, attr) in tracing.SPAN_TARGETS.items()}
    y = rng.normal(size=(64, 3))
    x = y @ geometry.euler_zyx_to_matrix(0.2, -0.1, 0.1).T + 0.01 * rng.normal(size=(64, 3))
    with tracing.Tracer() as tracer:
        _, history = icp.icp_register(x, y)
    _, calls = tracer.stage_totals()
    steps = len(history) - 1
    assert steps >= 1 and tracer.counts["icp.iterations"] == steps
    assert calls["icp.SpatialIndex.query_many"] == len(history)
    assert calls["geometry.procrustes_solve"] == steps and calls["geometry.svd3"] == steps
    assert {name: getattr(owner, attr) for name, (owner, attr) in tracing.SPAN_TARGETS.items()} == originals


def test_tracer_sees_the_stages_of_predict(rng):
    """With the SVD head, ``dcp_predict`` runs the stages up to the soft
    targets and solves in float64; it does not run ``dcp_forward``, whose
    float32 head it would discard."""
    tracing = load_tracing()
    cfg = dcpnet.ModelConfig(widths=(4, 4, 4, 8), emb_dims=8, heads=2, ffn_dims=8, knn_k=4)
    model = dcpnet.ModelParams.initialize(cfg, seed=0)
    pts = rng.normal(size=(16, 3))
    with tracing.Tracer() as tracer:
        dcpnet.dcp_predict(pts, pts[::-1].copy(), model)
    _, calls = tracer.stage_totals()
    assert calls["dcpnet.knn_graph"] == 2 and calls["dcpnet.dcp_predict"] == 1
    assert calls["dcpnet.embed_cloud"] == 2 and calls["dcpnet.pointer_softmatch"] == 1
    assert calls["dcpnet.transformer_attention"] == 1 and calls["geometry.procrustes_solve"] == 1
    assert calls["dcpnet.dcp_forward"] == 0 and tracer.counts["autodiff.svd_rotation.calls"] == 0
    assert np.isfinite(tracer.layer_metrics(1, 0.0)["dcpnet.dcp_predict.s"])
