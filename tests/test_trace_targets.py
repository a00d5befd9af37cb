"""The benchmark's layer trace patches dcpreg attributes by name, and its
driver and workloads call dcpreg's API; a rename or a call that stops going
through the module attribute would break ``benchmark/run.py`` or silently
zero a metric. Its smoke tests live outside ``testpaths``, so these checks
keep the names honest here."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from dcpreg import autodiff, dataio, dcpnet, geometry, icp, train

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"
TRACING_PY = BENCHMARK_DIR / "tracing.py"
WORKLOADS_PY = BENCHMARK_DIR / "workloads.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_workload_checkpoint_loads_back_bit_for_bit(tmp_path):
    """``benchmark/run.py`` saves each workload's model and loads it back,
    through the loader's checks on its tensor table, before it times
    anything; the loaded model must equal the saved one."""
    workloads = load_workloads()
    for name, w in workloads.WORKLOADS.items():
        model = dcpnet.ModelParams.initialize(w.model, seed=workloads.WEIGHTS_SEED)
        train.save_checkpoint(model, tmp_path / f"{name}.dcpk")
        back = train.load_checkpoint(tmp_path / f"{name}.dcpk")
        assert back.config == model.config and list(back.params) == list(model.params), name
        for key, t in model.params.items():
            assert back.params[key].data.dtype == t.data.dtype
            assert back.params[key].data.tobytes() == t.data.tobytes(), (name, key)
        assert list(back.bn_states) == list(model.bn_states), name
        for site, state in model.bn_states.items():
            assert back.bn_states[site].running_mean.tobytes() == state.running_mean.tobytes()
            assert back.bn_states[site].running_var.tobytes() == state.running_var.tobytes()


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
    assert calls["dcpnet.embed_cloud"] == 1 and calls["dcpnet.pointer_softmatch"] == 1
    assert calls["dcpnet.transformer_attention"] == 1 and calls["geometry.procrustes_solve"] == 1
    assert calls["dcpnet.dcp_forward"] == 0 and tracer.counts["autodiff.svd_rotation.calls"] == 0
    assert np.isfinite(tracer.layer_metrics(1, 0.0)["dcpnet.dcp_predict.s"])


def test_traced_training_equals_untraced_training():
    """The tracer wraps ``autodiff.backward``, whose returned gradients are
    the only ones a step gets: a traced ``train.train`` of a tiny DCP-v2
    model gives the parameters, running statistics and log of an untraced
    one, bit for bit, and its tape had entries."""
    tracing = load_tracing()
    rng = np.random.default_rng(3)
    pair_cfg = dataio.PairGenConfig(max_rot_deg=30.0, trans_bound=0.3, shuffle_target=True)
    clouds = [dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(16, 3)))) for _ in range(6)]
    pairs = [dataio.generate_pair(cloud, pair_cfg, rng) for cloud in clouds]
    cfg = dcpnet.ModelConfig(widths=(4, 4), emb_dims=8, heads=2, ffn_dims=8, knn_k=4)
    train_cfg = train.TrainConfig(epochs=2, batch_size=2, seed=5)
    model, log = train.train(cfg, pairs[:4], pairs[4:], train_cfg)
    with tracing.Tracer() as tracer:
        traced, traced_log = train.train(cfg, pairs[:4], pairs[4:], train_cfg)
    assert tracer.counts["autodiff.tape_entries"] > 0
    assert traced_log == log and all(np.isfinite(row["train_loss"]) for row in log)
    assert list(traced.params) == list(model.params)
    for name, t in model.params.items():
        assert traced.params[name].data.tobytes() == t.data.tobytes(), name
    for site, state in model.bn_states.items():
        assert traced.bn_states[site].running_mean.tobytes() == state.running_mean.tobytes(), site
        assert traced.bn_states[site].running_var.tobytes() == state.running_var.tobytes(), site


def _dotted(node: ast.Attribute) -> list[str] | None:
    """``["train", "load_checkpoint"]`` for ``train.load_checkpoint``; None
    when the chain does not start at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def test_benchmark_references_only_existing_api():
    """Every ``dataio.``, ``dcpnet.``, ``icp.`` and ``train.`` attribute the
    benchmark's driver and workloads reference, and every name they import
    from dcpreg, exists; so deleting one fails here, not in a benchmark run.
    Code in string constants (the setup probe) is parsed as well."""
    modules = {name: importlib.import_module(f"dcpreg.{name}") for name in ("dataio", "dcpnet", "icp", "train")}
    checked = set()
    for path in (BENCHMARK_DIR / "workloads.py", BENCHMARK_DIR / "run.py"):
        trees = [ast.parse(path.read_text(encoding="utf-8"))]
        trees += [ast.parse(node.value) for node in ast.walk(trees[0])
                  if isinstance(node, ast.Constant) and isinstance(node.value, str) and "from dcpreg" in node.value]
        for node in (n for tree in trees for n in ast.walk(tree)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dcpreg"):
                owner = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(owner, alias.name), f"{path.name}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Attribute) and (chain := _dotted(node)) and chain[0] in modules:
                obj = modules[chain[0]]
                for attr in chain[1:]:
                    assert hasattr(obj, attr), f"{path.name}: {'.'.join(chain)}"
                    obj = getattr(obj, attr)
                checked.add(".".join(chain))
    assert {"icp.polish_with_icp", "train.load_checkpoint", "dcpnet.dcp_predict"} <= checked
