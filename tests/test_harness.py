import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dcpreg import dataio, dcpnet, geometry as geo, harness, icp, train as train_mod
from dcpreg.errors import DataError

from conftest import save_with_config_bytes


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for i, (label, mesh) in enumerate(dataio.build_shape_corpus(8, seed=5)):
        d = root / label
        d.mkdir(exist_ok=True)
        dataio.save_off_mesh(mesh, d / f"{label}_{i}.off")
    return root


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    cfg = dcpnet.ModelConfig(
        widths=(4, 4), emb_dims=8, attention=False, knn_k=4, dtype="float32"
    )
    model = dcpnet.ModelParams.initialize(cfg, seed=0)
    path = tmp_path_factory.mktemp("ckpt") / "tiny.dcpk"
    train_mod.save_checkpoint(model, path)
    return path


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_config_text():
    text = """
    # protocol knobs
    experiment.kind = full   # trailing comment
    data.n_points = 128
    methods = icp, dcp-v1
    """
    values = harness.parse_config_text(text)
    assert values["experiment.kind"] == "full"
    assert values["data.n_points"] == "128"
    assert values["methods"] == "icp, dcp-v1"
    with pytest.raises(DataError):
        harness.parse_config_text("not a key value line")


def test_config_hash_stable_and_order_free():
    a = harness.config_hash({"b": "2", "a": "1"})
    b = harness.config_hash({"a": "1", "b": "2"})
    assert a == b
    assert a != harness.config_hash({"a": "1", "b": "3"})


def test_experiment_config_requires_seed_and_corpus(corpus):
    with pytest.raises(DataError, match="seed"):
        harness.experiment_config_from_values({"data.corpus": str(corpus)})
    with pytest.raises(DataError, match="corpus"):
        harness.experiment_config_from_values({"seed": "1"})
    cfg = harness.experiment_config_from_values({"seed": "1", "data.corpus": str(corpus)})
    assert cfg.kind == "full"
    assert cfg.pairgen.seed == 1


# ---------------------------------------------------------------------------
# Method tokens
# ---------------------------------------------------------------------------

def test_parse_method_tokens():
    assert harness.parse_method("icp").base == "icp"
    assert harness.parse_method("oracle").base == "oracle"
    v1 = harness.parse_method("dcp-v1")
    assert v1.base == "dcp" and not v1.attention and not v1.polish
    v2 = harness.parse_method("dcp-v2")
    assert v2.attention
    polish = harness.parse_method("dcp+icp")
    assert polish.base == "dcp" and polish.polish and polish.attention
    v1polish = harness.parse_method("dcp-v1+icp")
    assert v1polish.polish and not v1polish.attention
    with pytest.raises(DataError):
        harness.parse_method("goicp")


def test_method_model_overrides():
    base = dcpnet.ModelConfig(widths=(4, 4), emb_dims=8, knn_k=4)
    cfg = harness.method_model_config(base, harness.parse_method("dcp-v1:pointnet"))
    assert cfg.embedding == "pointnet" and not cfg.attention
    cfg = harness.method_model_config(base, harness.parse_method("dcp-v1:mlp"))
    assert cfg.head == "mlp"
    cfg = harness.method_model_config(base, harness.parse_method("dcp-v2:dims=16,heads=2"))
    assert cfg.emb_dims == 16 and cfg.heads == 2 and cfg.attention


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_archive_contract(corpus, tmp_path, capsys):
    out = tmp_path / "arch"
    rc = harness.main(
        [
            "gen-data", "--corpus", str(corpus), "--out", str(out),
            "--seed", "11", "--n-points", "48", "--no-shuffle",
        ]
    )
    assert rc == 0
    pairs = dataio.read_pair_archive(out)
    assert len(pairs) == 8  # one pair per corpus cloud
    for pair in pairs:
        mapped = geo.apply_transform(pair.ground_truth, pair.source.points)
        assert np.linalg.norm(mapped - pair.target.points, axis=1).max() < 1e-9
        assert not pair.noise_applied
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "id,label,noise_applied,seed"
    assert all(line.split(",")[3] for line in manifest[1:])  # seeds recorded


def test_gen_data_deterministic(corpus, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert harness.main(
            ["gen-data", "--corpus", str(corpus), "--out", str(out), "--seed", "3", "--n-points", "32"]
        ) == 0
        outs.append(tree_digest(out))
    assert outs[0] == outs[1]


def test_gen_data_noise_bounded(corpus, tmp_path):
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    for out, extra in ((clean, []), (noisy, ["--noise"])):
        assert harness.main(
            ["gen-data", "--corpus", str(corpus), "--out", str(out), "--seed", "9", "--n-points", "32"] + extra
        ) == 0
    pc = dataio.read_pair_archive(clean)
    pn = dataio.read_pair_archive(noisy)
    for a, b in zip(pc, pn):
        offsets = b.source.points - a.source.points
        assert np.abs(offsets).max() <= 0.05
        assert b.noise_applied and not a.noise_applied
        # Same seed stream: rigid motions agree between the two runs.
        assert np.array_equal(a.ground_truth.rotation, b.ground_truth.rotation)


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def write_cloud(tmp_path, points, name):
    path = tmp_path / name
    dataio.save_xyz(dataio.PointCloud(points), path)
    return path


def test_register_icp_identical_clouds(tmp_path, capsys, rng):
    pts = rng.normal(size=(32, 3))
    src = write_cloud(tmp_path, pts, "src.xyz")
    rc = harness.main(["register", "--method", "icp", "--source", str(src), "--target", str(src)])
    assert rc == 0
    vals = [float(tok) for tok in capsys.readouterr().out.split()]
    assert len(vals) == 12
    rot = np.array(vals[:9]).reshape(3, 3)
    assert np.allclose(rot, np.eye(3), atol=1e-6)
    assert np.allclose(vals[9:], 0, atol=1e-6)


def test_register_dcp_requires_checkpoint(tmp_path, capsys, rng):
    src = write_cloud(tmp_path, rng.normal(size=(16, 3)), "s.xyz")
    rc = harness.main(["register", "--method", "dcp-v1", "--source", str(src), "--target", str(src)])
    assert rc == 2


def test_register_stale_checkpoint_exits_3(tmp_path, capsys, tiny_checkpoint, rng):
    model = train_mod.load_checkpoint(tiny_checkpoint)
    ckpt = tmp_path / "stale.dcpk"
    raw = dict(asdict(model.config), dynamic_graph=False)
    save_with_config_bytes(model, ckpt, json.dumps(raw, sort_keys=True).encode("utf-8"))
    src = write_cloud(tmp_path, rng.normal(size=(16, 3)), "s.xyz")
    rc = harness.main(
        ["register", "--method", "dcp-v2", "--source", str(src), "--target", str(src), "--checkpoint", str(ckpt)]
    )
    assert rc == 3
    assert "dynamic_graph" in capsys.readouterr().err


def test_register_malformed_xyz_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2\n3 4 banana\n", encoding="utf-8")
    rc = harness.main(["register", "--method", "icp", "--source", str(bad), "--target", str(bad)])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_register_polish_objective_not_worse(tmp_path, capsys, tiny_checkpoint, rng):
    cloud = dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(48, 3))))
    pair = dataio.generate_pair(
        cloud, dataio.PairGenConfig(max_rot_deg=20.0, trans_bound=0.1), rng
    )
    src = write_cloud(tmp_path, pair.source.points, "src.xyz")
    dst = write_cloud(tmp_path, pair.target.points, "dst.xyz")

    results = {}
    for method in ("dcp-v1", "dcp+icp"):
        rc = harness.main(
            ["register", "--method", method, "--source", str(src), "--target", str(dst),
             "--checkpoint", str(tiny_checkpoint)]
        )
        assert rc == 0
        vals = [float(t) for t in capsys.readouterr().out.split()]
        transform = geo.RigidTransform(np.array(vals[:9]).reshape(3, 3), np.array(vals[9:]))
        results[method] = icp.registration_objective(pair.source.points, pair.target.points, transform)
    assert results["dcp+icp"] <= results["dcp-v1"] + 1e-12


def test_register_writes_aligned_cloud(tmp_path, capsys, rng):
    pts = rng.normal(size=(24, 3))
    src = write_cloud(tmp_path, pts, "s.xyz")
    out = tmp_path / "aligned.xyz"
    rc = harness.main(
        ["register", "--method", "icp", "--source", str(src), "--target", str(src), "--out", str(out)]
    )
    assert rc == 0
    aligned = dataio.load_xyz(out)
    assert np.allclose(aligned.points, pts, atol=1e-6)


# ---------------------------------------------------------------------------
# experiment / eval / bench
# ---------------------------------------------------------------------------

EXPERIMENT_CONF = """
experiment.kind = full
data.corpus = {corpus}
data.n_points = 40
split.fraction = 0.5
pairs.per_cloud_train = 2
pairs.per_cloud_test = 1
pairgen.max_rot_deg = 25
pairgen.trans_bound = 0.2
model.widths = 4,4
model.emb_dims = 8
model.heads = 2
model.ffn_dims = 16
model.knn_k = 4
train.epochs = 1
train.batch_size = 4
methods = oracle, icp, dcp-v1
seed = 21
"""


def run_experiment(corpus, out, conf_text=None):
    conf = out.parent / f"{out.name}.conf"
    conf.write_text(conf_text or EXPERIMENT_CONF.format(corpus=corpus), encoding="utf-8")
    return harness.main(["experiment", "--config", str(conf), "--out", str(out)])


def test_experiment_oracle_row_zero(corpus, tmp_path, capsys):
    out = tmp_path / "exp"
    assert run_experiment(corpus, out) == 0
    lines = [l for l in (out / "report.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header == list(harness.REPORT_COLUMNS)
    rows = {l.split(",")[0]: [float(v) for v in l.split(",")[1:]] for l in lines[1:]}
    assert all(v == 0.0 for v in rows["oracle"])
    assert set(rows) == {"oracle", "icp", "dcp-v1"}
    assert any(line.startswith("# config_hash=") for line in (out / "report.csv").read_text().splitlines())


def test_experiment_reruns_byte_identical(corpus, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(corpus, a) == 0
    assert run_experiment(corpus, b) == 0
    assert tree_digest(a) == tree_digest(b)


def test_eval_cli_oracle_and_icp(corpus, tmp_path, capsys):
    arch = tmp_path / "arch"
    assert harness.main(
        ["gen-data", "--corpus", str(corpus), "--out", str(arch), "--seed", "2",
         "--n-points", "32", "--max-rot-deg", "10", "--trans-bound", "0.05"]
    ) == 0
    capsys.readouterr()
    rc = harness.main(["eval", "--pairs", str(arch), "--method", "oracle", "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert (tmp_path / "rep" / "report.csv").exists()
    rc = harness.main(["eval", "--pairs", str(arch), "--method", "icp", "--workers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "icp" in out


def test_bench_smoke(corpus, tmp_path, capsys):
    conf = tmp_path / "model.conf"
    conf.write_text(
        "model.widths = 4,4\nmodel.emb_dims = 8\nmodel.heads = 2\nmodel.ffn_dims = 16\nmodel.knn_k = 4\n",
        encoding="utf-8",
    )
    rc = harness.main(
        ["bench", "--out", str(tmp_path / "bench"), "--methods", "icp,dcp-v1,dcp-v2",
         "--sizes", "48,64", "--trials", "1", "--config", str(conf)]
    )
    assert rc == 0
    lines = (tmp_path / "bench" / "timing.csv").read_text().splitlines()
    assert lines[0].startswith("# hardware=")
    assert lines[1] == "method,n_points,trials,mean_seconds"
    assert len(lines) == 2 + 3 * 2


def test_exit_code_for_missing_corpus(tmp_path, capsys):
    rc = harness.main(
        ["gen-data", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "o"), "--seed", "1"]
    )
    assert rc == 3


def test_exit_code_for_bad_subcommand():
    assert harness.main(["frobnicate"]) == 2
