import hashlib
import json
import re
import runpy
import shlex
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from dcpreg import dataio, dcpnet, geometry as geo, harness, icp, train as train_mod
from dcpreg.errors import DataError, InvalidInputError

from conftest import rewrite_checkpoint, save_with_config_bytes


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


def save_v2_checkpoint(path, **overrides):
    """A DCP-v2 checkpoint whose attention residual is not a no-op."""
    cfg = dcpnet.ModelConfig(
        widths=(4, 4), emb_dims=8, heads=2, ffn_dims=16, knn_k=4, dtype="float32", **overrides
    )
    model = dcpnet.ModelParams.initialize(cfg, seed=1)
    out_w = model.params["attn.out.w"]
    out_w.data = np.random.default_rng(2).normal(scale=0.5, size=out_w.shape).astype(np.float32)
    train_mod.save_checkpoint(model, path)
    return path


@pytest.fixture(scope="module")
def v2_checkpoint(tmp_path_factory):
    return save_v2_checkpoint(tmp_path_factory.mktemp("ckpt") / "v2.dcpk")


@pytest.fixture(scope="module")
def archive(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("arch") / "pairs"
    assert harness.main(["gen-data", "--corpus", str(corpus), "--out", str(out), "--seed", "4", "--n-points", "32"]) == 0
    return out


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


@pytest.mark.parametrize("text,message", [
    ("not a key value line", "config line 1: expected 'key = value', got 'not a key value line'"),
    ("seed = 0\n\n  # a = b\nmodel # knn_k = 4\n", "config line 4: expected 'key = value', got 'model # knn_k = 4'"),
    ("seed = 0\nseed = 1\n", "config key seed is set twice, on lines 1 and 2"),
    ("# header\n a = 1 # one\n\nb = 2\na=3", "config key a is set twice, on lines 2 and 5"),
])
def test_parse_config_text_errors_name_the_line(text, message):
    """Blank and comment lines count toward the line numbers, and a line
    without '=' is quoted whole, its comment included."""
    with pytest.raises(DataError) as exc:
        harness.parse_config_text(text)
    assert str(exc.value) == message


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
    v2polish = harness.parse_method("dcp-v2+icp")
    assert v2polish.polish and v2polish.attention
    for bad in ("goicp", "oracle+icp", "icp+icp", "icp:pointnet", "dcp-v3"):
        with pytest.raises(DataError):
            harness.parse_method(bad)


def test_method_model_overrides():
    base = dcpnet.ModelConfig(widths=(4, 4), emb_dims=8, knn_k=4)
    cfg = harness.method_model_config(base, harness.parse_method("dcp-v1:pointnet"))
    assert cfg.embedding == "pointnet" and cfg.widths is None and not cfg.attention
    cfg = harness.method_model_config(base, harness.parse_method("dcp-v1:mlp"))
    assert cfg.head == "mlp" and cfg.widths == (4, 4)
    cfg = harness.method_model_config(base, harness.parse_method("dcp-v2:dims=16,heads=2"))
    assert cfg.emb_dims == 16 and cfg.heads == 2 and cfg.attention
    cfg = harness.method_model_config(
        base, harness.parse_method("dcp:emb_dims=12, k=5,knn_k=6,embedding=pointnet,head=mlp,svd")
    )
    assert (cfg.emb_dims, cfg.knn_k, cfg.embedding, cfg.head) == (12, 6, "pointnet", "svd")


@pytest.mark.parametrize(
    "token",
    ["dcp-v2:heads=two", "dcp-v1:bogus=1", "dcp-v1:embedding=foo", "dcp-v1:head=pointnet",
     "dcp:heads=0", "dcp:k=-1", "dcp:dims=1.5", "dcp:fancy"],
)
def test_parse_method_rejects_bad_modifiers(token):
    with pytest.raises(DataError):
        harness.parse_method(token)


def test_parse_methods_splits_only_before_tokens(corpus):
    text = "icp, dcp-v2:dims=16,heads=2,oracle,dcp-v1:pointnet,mlp, dcp+icp,"
    expected = ("icp", "dcp-v2:dims=16,heads=2", "oracle", "dcp-v1:pointnet,mlp", "dcp+icp")
    assert tuple(m.name for m in harness.parse_methods(text)) == expected
    cfg = harness.experiment_config_from_values(
        {"seed": "1", "data.corpus": str(corpus), "model.emb_dims": "8", "methods": text}
    )
    assert tuple(m.name for m in cfg.methods) == expected


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
    with np.load(out, allow_pickle=False) as archive:
        assert archive["labels"].tolist() == [label for label, _ in dataio.scan_corpus(corpus)]
        assert archive["noise_applied"].tolist() == [False] * 8
        assert archive["seeds"].dtype == np.uint64 and len(set(archive["seeds"].tolist())) == 8


def test_undersized_xyz_corpus_cloud_exits_3(tmp_path, capsys, rng):
    """A corpus .xyz cloud with fewer points than asked for is a data error."""
    corpus = tmp_path / "corpus"
    (corpus / "blob").mkdir(parents=True)
    dataio.save_xyz(dataio.PointCloud(rng.normal(size=(20, 3))), corpus / "blob" / "small.xyz")
    out = tmp_path / "pairs"
    assert harness.main(["gen-data", "--corpus", str(corpus), "--out", str(out), "--seed", "1", "--n-points", "32"]) == 3
    assert "small.xyz: holds 20 points, fewer than n_points = 32" in capsys.readouterr().err
    assert not out.exists()
    conf = EXPERIMENT_CONF.format(corpus=corpus).replace("data.n_points = 40", "data.n_points = 32")
    assert run_experiment(corpus, tmp_path / "exp", conf) == 3
    err = capsys.readouterr().err
    assert "fewer than n_points = 32" in err and "Traceback" not in err


def test_gen_data_deterministic(corpus, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert harness.main(
            ["gen-data", "--corpus", str(corpus), "--out", str(out), "--seed", "3", "--n-points", "32"]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_gen_data_pair_count_below_one_exits_2(corpus, tmp_path, capsys, count):
    out = tmp_path / "arch"
    rc = harness.main(["gen-data", "--corpus", str(corpus), "--out", str(out), "--seed", "3", "--pairs-per-cloud", count])
    assert rc == 2
    assert "--pairs-per-cloud" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--sigma", "0.02"], ["--clip", "0.1"], ["--sigma", "0", "--clip", "0.05"]])
def test_gen_data_noise_flags_without_noise_exit_2(corpus, tmp_path, capsys, flags):
    """``--sigma`` and ``--clip`` set the noise that only ``--noise``
    applies; without it they were once dropped, and noise-free pairs
    written. The message names each flag given."""
    out = tmp_path / "arch"
    assert harness.main(["gen-data", "--corpus", str(corpus), "--out", str(out), "--seed", "3", *flags]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "--noise" in err and all(flag in err for flag in flags[::2])
    assert not out.exists()


def test_gen_data_noise_flags_set_the_noise(corpus, tmp_path):
    """With ``--noise``, ``--clip`` bounds each coordinate's offset."""
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    for out, extra in ((clean, []), (noisy, ["--noise", "--sigma", "0.5", "--clip", "0.002"])):
        assert harness.main(
            ["gen-data", "--corpus", str(corpus), "--out", str(out), "--seed", "9", "--n-points", "32"] + extra
        ) == 0
    for a, b in zip(dataio.read_pair_archive(clean), dataio.read_pair_archive(noisy)):
        offsets = np.abs(b.source.points - a.source.points)
        assert b.noise_applied and 0.0019 < offsets.max() < 0.002 + 1e-12


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


def test_register_checkpoint_with_a_number_for_widths_exits_3(tmp_path, capsys, tiny_checkpoint, rng):
    """A checkpoint's JSON config holding a number where the width list
    belongs is a data error naming the field, not a TypeError."""
    model = train_mod.load_checkpoint(tiny_checkpoint)
    ckpt = tmp_path / "widths.dcpk"
    raw = dict(asdict(model.config), widths=5)
    save_with_config_bytes(model, ckpt, json.dumps(raw, sort_keys=True).encode("utf-8"))
    src = write_cloud(tmp_path, rng.normal(size=(16, 3)), "s.xyz")
    rc = harness.main(
        ["register", "--method", "dcp-v1", "--source", str(src), "--target", str(src), "--checkpoint", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert "data error" in err and "widths" in err and "Traceback" not in err


def test_register_off_mesh_whose_area_overflows_exits_3(tmp_path, capsys):
    """Finite vertices whose triangle area overflows to inf once ended in a
    ValueError from the sampler's probabilities."""
    mesh = tmp_path / "m.off"
    mesh.write_text("OFF\n3 1 0\n0 0 0\n1e300 0 0\n0 1e300 0\n3 0 1 2\n", encoding="utf-8")
    rc = harness.main(["register", "--method", "icp", "--source", str(mesh), "--target", str(mesh), "--n-points", "50"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "data error: mesh surface area must be a finite number above 0, got inf" in err


@pytest.mark.parametrize("cut", [None, 0.5], ids=["dcpk-format", "truncated"])
def test_register_unreadable_checkpoint_exits_3(tmp_path, capsys, tiny_checkpoint, rng, cut):
    ckpt = tmp_path / "bad.dcpk"
    if cut is None:  # header of the retired DCPK container: magic, version 1, record count
        ckpt.write_bytes(b"DCPK" + (1).to_bytes(4, "little") + (3).to_bytes(4, "little") + bytes(64))
    else:
        blob = tiny_checkpoint.read_bytes()
        ckpt.write_bytes(blob[: int(len(blob) * cut)])
    src = write_cloud(tmp_path, rng.normal(size=(16, 3)), "s.xyz")
    rc = harness.main(
        ["register", "--method", "dcp-v1", "--source", str(src), "--target", str(src), "--checkpoint", str(ckpt)]
    )
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_register_negative_bn_variance_exits_3(tmp_path, capsys, tiny_checkpoint, rng):
    ckpt = tmp_path / "bad_bn.dcpk"
    ckpt.write_bytes(tiny_checkpoint.read_bytes())
    rewrite_checkpoint(ckpt, {"bnstate/embed.l1.bn/var.npy": np.full(4, -1.0, np.float32)})
    src = write_cloud(tmp_path, rng.normal(size=(16, 3)), "s.xyz")
    rc = harness.main(
        ["register", "--method", "dcp-v1", "--source", str(src), "--target", str(src), "--checkpoint", str(ckpt)]
    )
    assert rc == 3
    assert "negative variance" in capsys.readouterr().err


def test_register_malformed_xyz_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2\n3 4 banana\n", encoding="utf-8")
    rc = harness.main(["register", "--method", "icp", "--source", str(bad), "--target", str(bad)])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_register_xyz_with_a_nan_coordinate_exits_3(tmp_path, capsys):
    bad = tmp_path / "nan.xyz"
    bad.write_text("0 0 0\nnan 1 2\n1 1 1\n", encoding="utf-8")
    rc = harness.main(["register", "--method", "icp", "--source", str(bad), "--target", str(bad)])
    assert rc == 3
    assert "data error: point coordinates must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["register", "eval"])
@pytest.mark.parametrize("method", ["icp", "oracle"])
def test_checkpoint_for_a_token_that_loads_no_model_exits_2(archive, tmp_path, capsys, rng, command, method):
    """``--checkpoint`` given to a token that loads no model was once
    dropped without a word; it is a usage error naming the flag."""
    src = write_cloud(tmp_path, rng.normal(size=(16, 3)), "s.xyz")
    inputs = {"register": ["--source", str(src), "--target", str(src)], "eval": ["--pairs", str(archive)]}[command]
    out = tmp_path / "out"
    checkpoint = ["--checkpoint", str(tmp_path / "none.dcpk")]
    rc = harness.main([command, "--method", method, *inputs, *checkpoint, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "usage error: --checkpoint" in captured.err and not captured.out
    assert not out.exists()


def test_bench_checkpoint_that_no_token_loads_exits_2(tmp_path, capsys, tiny_checkpoint):
    """``bench --methods icp --checkpoint X`` once exited 0 without reading
    X; it exits 2 with register's message. A list with a dcp token keeps
    the checkpoint for that token."""
    argv = ["bench", "--sizes", "32", "--trials", "1", "--out", str(tmp_path / "bench")]
    assert harness.main(argv + ["--methods", "icp", "--checkpoint", str(tmp_path / "none.dcpk")]) == 2
    captured = capsys.readouterr()
    assert "usage error: --checkpoint is for dcp methods; icp loads no model" in captured.err and not captured.out
    assert not (tmp_path / "bench").exists()
    assert harness.main(argv + ["--methods", "icp,dcp-v1", "--checkpoint", str(tiny_checkpoint)]) == 0
    assert len((tmp_path / "bench" / "timing.csv").read_text().splitlines()) == 2 + 2


def test_register_polish_objective_not_worse(tmp_path, capsys, tiny_checkpoint, rng):
    cloud = dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(48, 3))))
    pair = dataio.generate_pair(
        cloud, dataio.PairGenConfig(max_rot_deg=20.0, trans_bound=0.1), rng
    )
    src = write_cloud(tmp_path, pair.source.points, "src.xyz")
    dst = write_cloud(tmp_path, pair.target.points, "dst.xyz")

    results = {}
    for method in ("dcp-v1", "dcp-v1+icp"):
        rc = harness.main(
            ["register", "--method", method, "--source", str(src), "--target", str(dst),
             "--checkpoint", str(tiny_checkpoint)]
        )
        assert rc == 0
        vals = [float(t) for t in capsys.readouterr().out.split()]
        transform = geo.RigidTransform(np.array(vals[:9]).reshape(3, 3), np.array(vals[9:]))
        index = icp.SpatialIndex(pair.target.points)
        _, results[method] = icp.correspondence_step(pair.source.points, index, transform)
    assert results["dcp-v1+icp"] <= results["dcp-v1"] + 1e-12


@pytest.mark.parametrize("method", ["icp", "dcp-v1+icp", "dcp-v1"])
def test_register_reports_icp_history_on_stderr(tmp_path, capsys, tiny_checkpoint, rng, method):
    """Methods that run ICP print its iteration count and final objective
    to stderr; stdout keeps the 12 numbers alone."""
    cloud = dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(48, 3))))
    pair = dataio.generate_pair(cloud, dataio.PairGenConfig(max_rot_deg=20.0, trans_bound=0.1), rng)
    src = write_cloud(tmp_path, pair.source.points, "src.xyz")
    dst = write_cloud(tmp_path, pair.target.points, "dst.xyz")
    checkpoint = [] if method == "icp" else ["--checkpoint", str(tiny_checkpoint)]  # icp loads no model
    rc = harness.main(["register", "--method", method, "--source", str(src), "--target", str(dst), *checkpoint])
    assert rc == 0
    captured = capsys.readouterr()
    assert len(captured.out.split()) == 12
    if method == "dcp-v1":
        assert "icp" not in captured.err
        return
    x, y = dataio.load_xyz(src).points, dataio.load_xyz(dst).points
    init = None
    if method != "icp":
        init = dcpnet.dcp_predict(x, y, train_mod.load_checkpoint(tiny_checkpoint))
    _, history = icp.icp_register(x, y, init=init)
    assert f"icp: {len(history) - 1} iterations, final objective {history[-1].objective:.12g}\n" in captured.err


def register_transform(capsys, method, src, dst, checkpoint):
    rc = harness.main(
        ["register", "--method", method, "--source", str(src), "--target", str(dst),
         "--checkpoint", str(checkpoint)]
    )
    assert rc == 0
    return capsys.readouterr().out.strip()


def test_register_honours_variant(tmp_path, capsys, v2_checkpoint, rng):
    cloud = dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(40, 3))))
    pair = dataio.generate_pair(cloud, dataio.PairGenConfig(max_rot_deg=20.0, trans_bound=0.1), rng)
    src = write_cloud(tmp_path, pair.source.points, "src.xyz")
    dst = write_cloud(tmp_path, pair.target.points, "dst.xyz")
    v1 = register_transform(capsys, "dcp-v1", src, dst, v2_checkpoint)
    v2 = register_transform(capsys, "dcp-v2", src, dst, v2_checkpoint)
    assert v1 != v2

    model = train_mod.load_checkpoint(v2_checkpoint)
    v1_model = dcpnet.ModelParams(replace(model.config, attention=False), model.params, model.bn_states)
    for printed, m in ((v1, v1_model), (v2, model)):
        pred = dcpnet.dcp_predict(dataio.load_xyz(src), dataio.load_xyz(dst), m)
        vals = list(pred.rotation.reshape(-1)) + list(pred.translation)
        assert printed == " ".join(f"{v:.12g}" for v in vals)

    for method in ("dcp-v1+icp", "dcp-v2+icp"):
        register_transform(capsys, method, src, dst, v2_checkpoint)


CANNOT_HONOUR = [
    ("tiny_checkpoint", "dcp-v2"),
    ("tiny_checkpoint", "dcp-v1:pointnet"),
    ("tiny_checkpoint", "dcp-v1:bogus=1"),
    ("v2_checkpoint", "dcp-v2:dims=16"),
    ("v2_checkpoint", "dcp-v2:heads=3"),
]


@pytest.mark.parametrize("command", ["register", "eval", "bench"])
@pytest.mark.parametrize("fixture,method", CANNOT_HONOUR)
def test_token_checkpoint_cannot_honour_exits_2(request, tmp_path, capsys, archive, rng, command, fixture, method):
    checkpoint = str(request.getfixturevalue(fixture))
    src = write_cloud(tmp_path, rng.normal(size=(32, 3)), "s.xyz")
    argv = {
        "register": ["register", "--method", method, "--source", str(src), "--target", str(src)],
        "eval": ["eval", "--method", method, "--pairs", str(archive)],
        "bench": ["bench", "--methods", f"icp,{method}", "--sizes", "32", "--trials", "1",
                  "--out", str(tmp_path / "bench")],
    }[command]
    assert harness.main(argv + ["--checkpoint", checkpoint]) == 2
    err = capsys.readouterr().err
    assert method.split(":")[-1] in err and "Traceback" not in err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("with_checkpoint", [False, True])
def test_bench_token_its_model_cannot_hold_exits_2(tmp_path, capsys, v2_checkpoint, with_checkpoint):
    """``dims=6`` cannot split into 4 heads, whether the model settings
    come from a checkpoint or from the defaults that bench initializes."""
    argv = ["bench", "--methods", "icp,dcp-v2:dims=6,heads=4", "--sizes", "32", "--trials", "1",
            "--out", str(tmp_path / "bench")]
    assert harness.main(argv + (["--checkpoint", str(v2_checkpoint)] if with_checkpoint else [])) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "cannot run dcp-v2:dims=6,heads=4" in err and "not divisible" in err
    assert not (tmp_path / "bench").exists()


def test_register_numerical_failure_exits_4(tmp_path, capsys):
    """Every source point lies nearest the same target point, so ICP's
    correspondences collapse: a numerical failure, exit 4."""
    src = write_cloud(tmp_path, np.array([[0.1, 0.1, 0.1], [0.1, 0.2, 0.1], [0.2, 0.1, 0.1], [0.1, 0.1, 0.2]]), "s.xyz")
    dst = write_cloud(tmp_path, np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0]]), "d.xyz")
    assert harness.main(["register", "--method", "icp", "--source", str(src), "--target", str(dst)]) == 4
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err and "single target point" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["register", "eval", "bench"])
@pytest.mark.parametrize("replace_members, drop, record", [
    ({}, ["param/attn.out.w.npy"], "param/attn.out.w"),
    ({"param/embed.l0.wa.npy": np.zeros((3, 5), np.float32)}, [], "param/embed.l0.wa"),
], ids=["missing", "misshaped"])
def test_checkpoint_contradicting_its_config_exits_3(
    v2_checkpoint, tmp_path, capsys, archive, rng, command, replace_members, drop, record
):
    """A checkpoint that lacks a tensor of its own configuration, or holds
    one at another shape, is a data error that names the tensor, not a
    token it cannot honour (exit 2)."""
    checkpoint = tmp_path / "broken.dcpk"
    checkpoint.write_bytes(v2_checkpoint.read_bytes())
    rewrite_checkpoint(checkpoint, replace_members, drop)
    src = write_cloud(tmp_path, rng.normal(size=(32, 3)), "s.xyz")
    argv = {
        "register": ["register", "--method", "dcp-v2", "--source", str(src), "--target", str(src)],
        "eval": ["eval", "--method", "dcp-v2", "--pairs", str(archive)],
        "bench": ["bench", "--methods", "icp,dcp-v2", "--sizes", "32", "--trials", "1", "--out", str(tmp_path / "bench")],
    }[command]
    assert harness.main(argv + ["--checkpoint", str(checkpoint)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and record in err and "Traceback" not in err
    assert not (tmp_path / "bench").exists()


def with_dropped_biases(path, cfg):
    """Rewrite the checkpoint at ``path`` to the layout of checkpoints
    written while the model still held the attention key biases and the
    MLP head's hidden-layer biases: each of those that ``cfg`` would have
    held, added back zero-filled. Return their member names."""
    sizes = {f"param/attn.{block}.wk.b": cfg.emb_dims for block in ("enc.self", "dec.self", "dec.cross")
             if cfg.attention}
    if cfg.head == "mlp":
        sizes.update({f"param/head.fc{i}.b": width for i, width in enumerate(cfg.mlp_head_widths)})
    rewrite_checkpoint(path, {f"{name}.npy": np.zeros(n, cfg.np_dtype) for name, n in sizes.items()})
    return sorted(sizes)


def test_dcp_v1_checkpoint_of_the_old_layout_loads_and_predicts(tiny_checkpoint, tmp_path, capsys, rng):
    """DCP-v1 with the SVD head held none of the dropped biases, so its
    checkpoints of the old layout load as they are and predict what the
    saved model predicts, bit for bit."""
    checkpoint = tmp_path / "old.dcpk"
    checkpoint.write_bytes(tiny_checkpoint.read_bytes())
    model = train_mod.load_checkpoint(tiny_checkpoint)
    assert with_dropped_biases(checkpoint, model.config) == []
    x, y = rng.normal(size=(32, 3)), rng.normal(size=(32, 3))
    want = dcpnet.dcp_predict(x, y, model)
    got = dcpnet.dcp_predict(x, y, train_mod.load_checkpoint(checkpoint))
    assert np.array_equal(got.rotation, want.rotation) and np.array_equal(got.translation, want.translation)
    src, dst = write_cloud(tmp_path, x, "s.xyz"), write_cloud(tmp_path, y, "d.xyz")
    argv = ["register", "--method", "dcp-v1", "--source", str(src), "--target", str(dst), "--n-points", "32"]
    outputs = []
    for path in (tiny_checkpoint, checkpoint):
        assert harness.main(argv + ["--checkpoint", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("overrides, record", [
    ({}, "param/attn.enc.self.wk.b"),
    ({"head": "mlp", "mlp_head_widths": (6, 5, 4)}, "param/head.fc0.b"),
], ids=["svd", "mlp"])
def test_dcp_v2_checkpoint_of_the_old_layout_exits_3(tmp_path, capsys, rng, overrides, record):
    """A checkpoint of the old layout holds tensors the model no longer
    has, and ``load_checkpoint``'s table check names each one; no shim
    reads them."""
    checkpoint = save_v2_checkpoint(tmp_path / "old.dcpk", **overrides)
    added = with_dropped_biases(checkpoint, train_mod.load_checkpoint(checkpoint).config)
    assert record in added
    src = write_cloud(tmp_path, rng.normal(size=(32, 3)), "s.xyz")
    argv = ["register", "--method", "dcp-v2", "--source", str(src), "--target", str(src), "--checkpoint", str(checkpoint)]
    assert harness.main(argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert all(f"unexpected record {name!r}" in err for name in added)


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


def test_experiment_bad_token_fails_before_any_method(corpus, tmp_path, capsys, monkeypatch):
    def no_method_may_run(*args, **kwargs):
        raise AssertionError("a method ran before the bad token was rejected")

    monkeypatch.setattr(harness, "run_method", no_method_may_run)
    out = tmp_path / "exp"
    conf = EXPERIMENT_CONF.format(corpus=corpus).replace("dcp-v1\n", "dcp-v1:bogus=1\n")
    assert run_experiment(corpus, out, conf) == 3
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_malformed_number_exits_3(corpus, tmp_path, capsys):
    conf = EXPERIMENT_CONF.format(corpus=corpus).replace("train.epochs = 1", "train.epochs = ten")
    assert run_experiment(corpus, tmp_path / "exp", conf) == 3
    assert "train.epochs" in capsys.readouterr().err


TINY_MODEL_CONF = "model.widths = 4,4\nmodel.emb_dims = 8\nmodel.heads = 2\nmodel.ffn_dims = 16\nmodel.knn_k = 4\n"


def test_train_cli(archive, tmp_path, capsys):
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF + "train.batch_size = 4\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = harness.main(
        ["train", "--pairs", str(archive), "--out", str(out), "--config", str(conf),
         "--seed", "3", "--epochs", "1", "--v1"]
    )
    assert rc == 0
    model = train_mod.load_checkpoint(out / "checkpoints" / "model_final.dcpk")
    assert model.config.attention is False and model.config.widths == (4, 4)
    log = (out / "training_log.csv").read_text(encoding="utf-8").splitlines()
    assert log[0] == ",".join(train_mod.LOG_COLUMNS) and len(log) == 2


def test_train_malformed_number_exits_3(archive, tmp_path, capsys):
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF.replace("4,4", "4,x"), encoding="utf-8")
    rc = harness.main(
        ["train", "--pairs", str(archive), "--out", str(tmp_path / "run"), "--config", str(conf), "--seed", "3"]
    )
    assert rc == 3
    assert "model.widths" in capsys.readouterr().err


def test_train_cli_mixed_cloud_sizes_exits_3(corpus, archive, tmp_path, capsys):
    """Batches stack their pairs, so an archive mixing cloud sizes is a data
    error, named before training starts, unless every batch holds one pair."""
    bigger = tmp_path / "bigger"
    assert harness.main(["gen-data", "--corpus", str(corpus), "--out", str(bigger), "--seed", "5", "--n-points", "40"]) == 0
    mixed = tmp_path / "mixed"
    pairs = dataio.read_pair_archive(archive)[:3] + dataio.read_pair_archive(bigger)[:3]
    dataio.write_pair_archive(pairs, mixed)
    conf = tmp_path / "model.conf"
    for batch_size, code in ((4, 3), (1, 0)):
        conf.write_text(TINY_MODEL_CONF + f"train.batch_size = {batch_size}\ntrain.epochs = 1\n", encoding="utf-8")
        out = tmp_path / f"run{batch_size}"
        assert harness.main(["train", "--pairs", str(mixed), "--out", str(out), "--config", str(conf), "--seed", "3"]) == code
    err = capsys.readouterr().err
    assert "(32, 32), (40, 40)" in err and "Traceback" not in err
    assert not (tmp_path / "run4").exists()


@pytest.mark.parametrize("kind", ["directory", "truncated", "checkpoint"])
def test_train_and_eval_reject_a_file_that_is_no_pair_archive(corpus, archive, tiny_checkpoint, tmp_path, capsys, kind):
    """A pair archive directory of the old layout, a cut archive file and a
    checkpoint all exit 3 with a data error, and gen-data will not write over
    a directory."""
    bad = tmp_path / "bad"
    if kind == "directory":
        (bad / "pairs" / "000000").mkdir(parents=True)
        (bad / "manifest.csv").write_text("id,label,noise_applied,seed\n000000,box,0,\n", encoding="utf-8")
        assert harness.main(["gen-data", "--corpus", str(corpus), "--out", str(bad), "--seed", "1", "--n-points", "32"]) == 3
    else:
        blob = (archive if kind == "truncated" else tiny_checkpoint).read_bytes()
        bad.write_bytes(blob[: len(blob) // 2] if kind == "truncated" else blob)
    for argv in (["train", "--out", str(tmp_path / "run"), "--seed", "3"], ["eval", "--method", "icp"]):
        assert harness.main(argv + ["--pairs", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fraction", ["3", "-0.1", "1.0"])
def test_train_val_fraction_outside_unit_interval_exits_3(archive, tmp_path, capsys, fraction):
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF + f"train.val_fraction = {fraction}\n", encoding="utf-8")
    rc = harness.main(
        ["train", "--pairs", str(archive), "--out", str(tmp_path / "run"), "--config", str(conf), "--seed", "3"]
    )
    assert rc == 3
    assert "train.val_fraction" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


MODEL_SIZE_CASES = [
    ("widths", (8, 0)), ("widths", ()), ("emb_dims", 0), ("heads", 0), ("ffn_dims", -1), ("knn_k", 0),
    ("mlp_head_widths", (8, 0)),
]


@pytest.mark.parametrize("field,value", MODEL_SIZE_CASES)
def test_model_size_below_one_exits_3(archive, tmp_path, capsys, field, value):
    with pytest.raises(InvalidInputError, match=field):
        dcpnet.ModelConfig(**{field: value})
    if f"model.{field}" not in harness.MODEL_KEYS:
        return
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF + f"model.{field} = {text}\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = harness.main(["train", "--pairs", str(archive), "--out", str(out), "--config", str(conf), "--seed", "3"])
    err = capsys.readouterr().err
    assert rc == 3
    assert field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["train.epochs", "train.batch_size"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_train_count_below_one_exits_3(archive, tmp_path, capsys, key, value):
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF + f"{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = harness.main(["train", "--pairs", str(archive), "--out", str(out), "--config", str(conf), "--seed", "3"])
    assert rc == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_train_config_negative_seed_exits_3(archive, tmp_path, capsys):
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF + "seed = -1\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = harness.main(["train", "--pairs", str(archive), "--out", str(out), "--config", str(conf)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_train_epochs_flag_below_one_exits_2(archive, tmp_path, capsys, epochs):
    out = tmp_path / "run"
    rc = harness.main(["train", "--pairs", str(archive), "--out", str(out), "--seed", "3", "--epochs", epochs])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--epochs" in captured.err and "checkpoint:" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("key", ["pairs.per_cloud_train", "pairs.per_cloud_test"])
def test_experiment_pair_count_below_one_exits_3(corpus, tmp_path, capsys, key):
    conf = EXPERIMENT_CONF.format(corpus=corpus) + f"{key} = 0\n"
    out = tmp_path / "exp"
    assert run_experiment(corpus, out, conf) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("icp.max_iters", "-1"), ("train.checkpoint_every", "-1"), ("seed", "-1"), ("icp.tol", "nan"), ("icp.tol", "-1"),
    ("methods", ""), ("pairgen.max_rot_deg", "nan"), ("pairgen.trans_bound", "inf"), ("noise.sigma", "nan"),
    ("noise.clip", "inf"), ("train.base_lr", "-1e-3"), ("train.base_lr", "nan"), ("train.weight_decay", "-1"),
    ("train.lr_factor", "-1"), ("train.lr_factor", "0"), ("noise.clip", "0"), ("data.n_points", "2"),
    ("train.milestones", "-3"), ("model.emb_dims", "0"), ("model.emb_dims", "6"), ("split.mode", "bogus"),
    ("split.fraction", "2.0"), ("model.embedding", "foo"), ("model.head", "foo"), ("model.dtype", "float16"),
])
def test_experiment_count_out_of_range_exits_3(corpus, tmp_path, capsys, key, value):
    """A config value out of its range is a data error naming the key, not
    the dataclass field it sets or the converter that checks it. The model
    keeps the default 4 heads, which ``model.emb_dims = 6`` cannot split
    for the attention of the ``dcp-v2`` token. The corpus directory does
    not exist, so each key is reported while the config is read, before the
    corpus is."""
    conf = EXPERIMENT_CONF.format(corpus=tmp_path / "no-corpus").replace("model.heads = 2\n", "")
    conf = conf.replace("dcp-v1", "dcp-v2")
    conf = re.sub(rf"^{re.escape(key)} = .*\n", "", conf, flags=re.M)  # a key may appear once
    conf += f"{key} = {value}\n"
    out = tmp_path / "exp"
    assert run_experiment(corpus, out, conf) == 3
    err = capsys.readouterr().err
    assert key in err and not any(name in err for name in CONVERTER_NAMES)
    assert not out.exists()


def test_v1_commands_accept_dims_that_heads_do_not_split(corpus, archive, tmp_path, capsys):
    """Without the attention stage no head splits ``model.emb_dims``: the
    commands check the model that each runs, not a DCP-v2 one."""
    conf = tmp_path / "run.conf"
    conf.write_text(EXPERIMENT_CONF.format(corpus=corpus).replace("model.emb_dims = 8", "model.emb_dims = 10")
                    .replace("model.heads = 2\n", ""), encoding="utf-8")
    bench = ["bench", "--sizes", "32", "--trials", "1", "--config", str(conf), "--methods"]
    for argv in (
        ["train", "--v1", "--pairs", str(archive), "--out", str(tmp_path / "train"), "--config", str(conf)],
        ["experiment", "--config", str(conf), "--out", str(tmp_path / "exp")],
        bench + ["icp,dcp-v1", "--out", str(tmp_path / "bench")],
    ):
        assert harness.main(argv) == 0, capsys.readouterr().err
    assert harness.main(bench + ["icp,dcp-v2", "--out", str(tmp_path / "bench2")]) == 2
    assert "cannot run dcp-v2" in capsys.readouterr().err


def test_bench_names_model_keys_a_checkpoint_overrides(tmp_path, capsys, tiny_checkpoint):
    """The checkpoint holds its own model settings, so bench times its
    model and names the config's ``model.*`` keys as ignored."""
    conf = tmp_path / "run.conf"
    conf.write_text("model.knn_k = 7\nmodel.emb_dims = 16\n", encoding="utf-8")
    argv = ["bench", "--methods", "dcp-v1", "--sizes", "32", "--trials", "1", "--config", str(conf),
            "--checkpoint", str(tiny_checkpoint), "--out", str(tmp_path / "bench")]
    assert harness.main(argv) == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if "ignoring" in line]
    assert notes == ["dcpreg bench: ignoring config key(s) model.emb_dims, model.knn_k"]


@pytest.mark.parametrize("command,key", [
    ("train", "train.epoch"), ("experiment", "pairgen.max_rot"), ("bench", "noise.sigmaa"), ("experiment", "workers"),
])
def test_unknown_config_key_exits_3(corpus, archive, tmp_path, capsys, command, key):
    conf = tmp_path / "run.conf"
    conf.write_text(EXPERIMENT_CONF.format(corpus=corpus) + f"{key} = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--pairs", str(archive), "--out", str(out), "--config", str(conf)],
        "experiment": ["experiment", "--config", str(conf), "--out", str(out)],
        "bench": ["bench", "--out", str(out), "--methods", "icp", "--sizes", "32", "--trials", "1", "--config", str(conf)],
    }[command]
    assert harness.main(argv) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "bench"])
def test_config_keys_a_command_ignores_are_named(corpus, archive, tmp_path, capsys, command):
    """One config file serves every command: train and bench accept the
    keys they do not read, and name them on one stderr line."""
    read_only = {"train": "seed = 3\nmodel.knn_k = 4\ntrain.epochs = 1\n", "bench": "model.knn_k = 4\n"}[command]
    ignored = ["data.corpus", "data.n_points", "experiment.kind", "methods", "pairgen.max_rot_deg",
               "pairgen.trans_bound", "pairs.per_cloud_test", "pairs.per_cloud_train", "split.fraction"]
    if command == "bench":
        ignored = sorted(ignored + ["seed", "train.batch_size", "train.epochs"])
    for text, expected in ((EXPERIMENT_CONF.format(corpus=corpus), ignored), (read_only, [])):
        conf = tmp_path / "run.conf"
        conf.write_text(text, encoding="utf-8")
        out = tmp_path / f"out{len(expected)}"
        argv = {
            "train": ["train", "--pairs", str(archive), "--out", str(out), "--config", str(conf)],
            "bench": ["bench", "--out", str(out), "--methods", "icp", "--sizes", "32", "--trials", "1", "--config", str(conf)],
        }[command]
        assert harness.main(argv) == 0
        captured = capsys.readouterr()
        notes = [line for line in captured.err.splitlines() if "ignoring" in line]
        assert notes == ([f"dcpreg {command}: ignoring config key(s) {', '.join(expected)}"] if expected else [])
        assert "ignoring" not in captured.out


def test_parse_config_text_rejects_repeated_key():
    with pytest.raises(DataError, match="train.epochs is set twice, on lines 2 and 4"):
        harness.parse_config_text("seed = 0\ntrain.epochs = 1\n# later\ntrain.epochs = 3\n")


@pytest.mark.parametrize("command", ["train", "experiment", "bench"])
def test_repeated_config_key_exits_3(corpus, archive, tmp_path, capsys, command):
    """A key set twice is as likely a slip as a misspelt one; before, the
    last line won silently."""
    text = EXPERIMENT_CONF.format(corpus=corpus)
    first = text.splitlines().index("model.knn_k = 4") + 1
    conf = tmp_path / "run.conf"
    conf.write_text(text + "model.knn_k = 3\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--pairs", str(archive), "--out", str(out), "--config", str(conf)],
        "experiment": ["experiment", "--config", str(conf), "--out", str(out)],
        "bench": ["bench", "--out", str(out), "--methods", "icp", "--sizes", "32", "--trials", "1", "--config", str(conf)],
    }[command]
    assert harness.main(argv) == 3
    err = capsys.readouterr().err
    assert f"model.knn_k is set twice, on lines {first} and {len(text.splitlines()) + 1}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_desk_script_config_accepted(corpus):
    """Every key scripts/run_desk_protocols.sh writes is read, with its value."""
    script = (Path(__file__).resolve().parents[1] / "scripts" / "run_desk_protocols.sh").read_text(encoding="utf-8")
    common = dict(re.findall(r"^([a-z_.]+) = (.*)$", script, flags=re.M))
    confs = re.findall(r'echo "experiment\.kind = (\w+)";\s+echo "methods = ([^"]*)"', script)
    assert len(common) == 15 and len(confs) == 4
    # The shell variables the script fills in.
    common.update({"data.corpus": str(corpus), "train.epochs": "1", "seed": "0"})
    for kind, methods in confs:
        cfg = harness.experiment_config_from_values({**common, "experiment.kind": kind, "methods": methods})
        assert cfg.kind == kind and cfg.train.batch_size == 8 and cfg.model.knn_k == 10


def test_desk_script_commands_parse():
    """Every ``python3 -m dcpreg`` command of scripts/run_desk_protocols.sh,
    its continuation lines joined and its shell variables filled in, parses,
    so a renamed or removed flag fails here rather than in the script."""
    script = (Path(__file__).resolve().parents[1] / "scripts" / "run_desk_protocols.sh").read_text(encoding="utf-8")
    variables = {"OUT": "runs/desk", "SEED": "0", "EPOCHS": "50", "kind": "full"}
    commands = [
        re.sub(r"\$(\w+)", lambda m: variables[m.group(1)], line.strip())
        for line in script.replace("\\\n", " ").splitlines() if line.strip().startswith("python3 -m dcpreg ")
    ]
    assert len(commands) == 2
    parser = harness.build_parser()
    for command in commands:
        argv = shlex.split(command)[3:]
        assert parser.parse_args(argv).command == argv[0]


def test_eval_and_experiment_print_the_report_table(corpus, archive, tmp_path, capsys):
    assert harness.main(["eval", "--pairs", str(archive), "--method", "icp", "--out", str(tmp_path / "rep")]) == 0
    assert capsys.readouterr().out == (tmp_path / "rep" / "report.txt").read_text(encoding="utf-8")
    assert run_experiment(corpus, tmp_path / "exp") == 0
    assert capsys.readouterr().out == (tmp_path / "exp" / "report.txt").read_text(encoding="utf-8")


def test_eval_report_records_its_provenance(archive, v2_checkpoint, tmp_path, capsys):
    """``eval`` records the hashes of its pair archive and checkpoint and its
    ICP settings: the same arguments give the same bytes, and another
    ``--max-iters`` changes its own provenance line alone."""
    def run(name, method, *extra):
        out = tmp_path / name
        assert harness.main(["eval", "--pairs", str(archive), "--method", method, "--out", str(out), *extra]) == 0
        return [capsys.readouterr().out, *((out / f).read_text(encoding="utf-8") for f in ("report.txt", "report.csv"))]

    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]

    ckpt = ["--checkpoint", str(v2_checkpoint)]
    first, again = run("a", "dcp-v2", *ckpt), run("b", "dcp-v2", *ckpt)
    other = run("c", "dcp-v2", *ckpt, "--max-iters", "7")
    assert first == again
    assert first[0].splitlines()[:5] == [
        f"# version={harness.__version__}", f"# pairs_sha256={digest(archive)}",
        f"# checkpoint_sha256={digest(v2_checkpoint)}", f"# max_iters={icp.DEFAULT_MAX_ITERS}",
        f"# tol={icp.DEFAULT_TOL}",
    ]
    for text, changed in zip(first, other):
        differ = [(a, b) for a, b in zip(text.splitlines(), changed.splitlines(), strict=True) if a != b]
        assert differ == [(f"# max_iters={icp.DEFAULT_MAX_ITERS}", "# max_iters=7")]
    assert "checkpoint_sha256" not in run("d", "oracle")[0]


def test_module_entry_point_prints_help(monkeypatch, capsys):
    """``python -m dcpreg --help`` runs ``dcpreg/__main__.py``, which exits with main's code."""
    monkeypatch.setattr(sys, "argv", ["dcpreg", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("dcpreg", run_name="__main__")
    assert exc.value.code == 0
    assert "usage: dcpreg" in capsys.readouterr().out


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
    rc = harness.main(["eval", "--pairs", str(arch), "--method", "icp"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "icp" in out
    assert harness.main(["eval", "--pairs", str(arch), "--method", "icp", "--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_bench_smoke(corpus, tmp_path, capsys):
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF, encoding="utf-8")
    rc = harness.main(
        ["bench", "--out", str(tmp_path / "bench"), "--methods", "icp,dcp-v1,dcp-v2",
         "--sizes", "48,64", "--trials", "1", "--config", str(conf)]
    )
    assert rc == 0
    lines = (tmp_path / "bench" / "timing.csv").read_text().splitlines()
    assert lines[0].startswith("# hardware=")
    assert lines[1] == "method,n_points,trials,p50_seconds,p90_seconds,min_seconds"
    assert len(lines) == 2 + 3 * 2


@pytest.mark.parametrize(
    "sizes", ["32,x", "-5", "0", "", "32,2"], ids=["malformed", "negative", "zero", "empty", "below-three"]
)
def test_bench_malformed_sizes_exits_2(tmp_path, capsys, sizes):
    """A point count that a pair cannot have is a usage error; ``32,2``
    once timed 32 points, then exited 3 naming a dataclass field."""
    rc = harness.main(["bench", "--out", str(tmp_path / "bench"), "--methods", "icp", "--sizes", sizes])
    assert rc == 2
    assert "--sizes" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("count", ["-3", "0"])
def test_make_shapes_count_below_one_exits_2(tmp_path, monkeypatch, capsys, count):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_shapes.py"
    monkeypatch.setattr("sys.argv", [str(script), "--out", str(tmp_path / "shapes"), "--n-shapes", count, "--seed", "0"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    assert "--n-shapes" in capsys.readouterr().err
    assert not (tmp_path / "shapes").exists()


def test_make_shapes_negative_seed_exits_2(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_shapes.py"
    monkeypatch.setattr("sys.argv", [str(script), "--out", str(tmp_path / "shapes"), "--seed", "-1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "shapes").exists()


def test_bench_zero_trials_exits_2(tmp_path, capsys):
    rc = harness.main(["bench", "--out", str(tmp_path / "bench"), "--methods", "icp", "--sizes", "32", "--trials", "0"])
    assert rc == 2
    assert "--trials" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("key", ["model.scale_pointer_logits", "model.emb_dim"])
def test_unknown_model_key_exits_3(tmp_path, capsys, key):
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF + f"{key} = 1\n", encoding="utf-8")
    rc = harness.main(
        ["bench", "--out", str(tmp_path / "bench"), "--methods", "dcp-v1", "--sizes", "32",
         "--trials", "1", "--config", str(conf)]
    )
    assert rc == 3
    assert key in capsys.readouterr().err


# The converters of settings that no config dataclass holds; no message names them.
CONVERTER_NAMES = ("_nonnegative", "_positive_int", "_seed", "_sizes", "_rule", "_field")


@pytest.mark.parametrize("command,flag,value", [
    ("register", "--max-iters", "-5"), ("eval", "--max-iters", "0"), ("bench", "--max-iters", "0"),
    ("register", "--n-points", "-5"), ("register", "--seed", "-1"), ("gen-data", "--seed", "-1"),
    ("train", "--seed", "-1"), ("bench", "--seed", "-1"),
    ("register", "--tol", "nan"), ("register", "--tol", "-0.5"), ("eval", "--tol", "nan"), ("eval", "--tol", "inf"),
    ("bench", "--methods", ""), ("bench", "--methods", " , "),
    ("gen-data", "--max-rot-deg", "nan"), ("gen-data", "--trans-bound", "inf"), ("gen-data", "--sigma", "nan"),
    ("gen-data", "--sigma", "-0.1"), ("gen-data", "--clip", "inf"), ("gen-data", "--n-points", "2"),
    ("gen-data", "--clip", "0"), ("register", "--n-points", "2"),
])
def test_count_flag_below_one_exits_2(corpus, archive, tmp_path, capsys, command, flag, value):
    """A count flag below 1, a seed below 0, an ICP tolerance or a pair
    setting that is not a finite number of at least 0, a noise clip that is
    not above 0, fewer than 3 points per pair, or a method list with no
    token is a usage error, and the message names the flag and states the
    rule, not the converter that checks it. The register source is an OFF
    mesh, whose surface sampling reads the count and the seed. A NaN or
    infinite pair setting once ended in an OverflowError, or in pairs
    written without the noise that ``--noise`` asked for; ``--n-points 2``
    and ``--clip 0`` once exited 3 naming a dataclass field."""
    src = next(corpus.rglob("*.off"))
    out = tmp_path / "out"
    argv = {
        "register": ["register", "--method", "icp", "--source", str(src), "--target", str(src)],
        "eval": ["eval", "--method", "icp", "--pairs", str(archive)],
        "bench": ["bench", "--methods", "icp", "--sizes", "32", "--trials", "1", "--out", str(out)],
        "gen-data": ["gen-data", "--corpus", str(corpus), "--out", str(out), "--seed", "1", "--noise"],
        "train": ["train", "--pairs", str(archive), "--out", str(out)],
    }[command]
    rule = {
        "--max-iters": "at least 1", "--n-points": "at least", "--seed": "at least 0", "--tol": "at least 0",
        "--methods": "names no method", "--max-rot-deg": "at least 0", "--trans-bound": "at least 0",
        "--sigma": "at least 0", "--clip": "above 0",
    }[flag]
    assert harness.main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and rule in captured.err and captured.out == ""
    assert not any(name in captured.err for name in CONVERTER_NAMES)
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "gen-data", "eval"])
def test_output_path_through_a_file_exits_3(archive, corpus, tmp_path, capsys, command):
    """An output path that needs an existing file to be a directory is a
    data error with its message, not a traceback."""
    blocker = tmp_path / "F"
    blocker.write_text("keep\n", encoding="utf-8")
    argv = {
        "train": ["train", "--pairs", str(archive), "--out", str(blocker), "--seed", "1", "--epochs", "1"],
        "gen-data": ["gen-data", "--corpus", str(corpus), "--out", str(blocker / "x.zip"), "--seed", "1",
                     "--n-points", "32"],
        "eval": ["eval", "--pairs", str(archive), "--method", "icp", "--out", str(blocker)],
    }[command]
    assert harness.main(argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(blocker) in err and "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "keep\n"


def test_exit_code_for_missing_corpus(tmp_path, capsys):
    rc = harness.main(
        ["gen-data", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "o"), "--seed", "1"]
    )
    assert rc == 3


def test_exit_code_for_bad_subcommand():
    assert harness.main(["frobnicate"]) == 2


def test_bench_times_each_token_model(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF, encoding="utf-8")
    seen = []
    predict = dcpnet.dcp_predict

    def spy(source, target, model):
        seen.append((model.config.embedding, model.config.attention, model.config.head))
        return predict(source, target, model)

    monkeypatch.setattr(dcpnet, "dcp_predict", spy)
    rc = harness.main(
        ["bench", "--out", str(tmp_path / "bench"), "--methods", "dcp-v1,dcp-v1:pointnet,dcp-v2:mlp",
         "--sizes", "32", "--trials", "1", "--config", str(conf)]
    )
    assert rc == 0
    assert sorted(set(seen)) == [("dgcnn", False, "svd"), ("dgcnn", True, "mlp"), ("pointnet", False, "svd")]


def test_bench_knn_k_limits_only_dgcnn(tmp_path, capsys):
    """PointNet builds no kNN graph, so a size at or below ``knn_k`` is
    timed; DGCNN at that size is a data error from its kNN graph."""
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF.replace("model.knn_k = 4", "model.knn_k = 20"), encoding="utf-8")
    argv = ["bench", "--sizes", "16", "--trials", "1", "--config", str(conf)]
    assert harness.main(argv + ["--out", str(tmp_path / "pointnet"), "--methods", "dcp-v1:pointnet"]) == 0
    lines = (tmp_path / "pointnet" / "timing.csv").read_text().splitlines()
    assert lines[2].startswith("dcp-v1:pointnet,16,1,")
    capsys.readouterr()
    assert harness.main(argv + ["--out", str(tmp_path / "dgcnn"), "--methods", "dcp-v1"]) == 3
    assert "k=20" in capsys.readouterr().err
    assert not (tmp_path / "dgcnn").exists()


# ---------------------------------------------------------------------------
# CLI branches: each exit code with its message
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flag,value", [("--max-iters", "abc"), ("--tol", "abc"), ("--seed", "1.5")])
def test_unparsable_flag_value_exits_2(capsys, flag, value):
    rc = harness.main(["register", "--method", "icp", "--source", "s.xyz", "--target", "t.xyz", flag, value])
    err = capsys.readouterr().err
    assert rc == 2
    assert flag in err and f"got {value!r}" in err


def test_boolean_config_key_reads_false_and_rejects_other_words(corpus, tmp_path, capsys):
    values = harness.parse_config_text(EXPERIMENT_CONF.format(corpus=corpus))
    cfg = harness.experiment_config_from_values({**values, "experiment.kind": "noise", "noise.eval": "false"})
    assert cfg.noise_eval is False
    conf = EXPERIMENT_CONF.format(corpus=corpus) + "noise.eval = maybe\n"
    assert run_experiment(corpus, tmp_path / "exp", conf) == 3
    assert "config key noise.eval: bad value 'maybe'" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("key,value,message", [
    ("experiment.kind", "bogus", "unknown experiment kind 'bogus'"),
    ("data.corpus", "{missing}", "corpus directory {missing} does not exist"),
    ("split.fraction", "1.0", "split produced an empty side"),
    ("data.corpus", "{empty}", "no .off or .xyz files under {empty}"),
])
def test_experiment_data_errors_exit_3(corpus, tmp_path, capsys, key, value, message):
    dirs = {"missing": tmp_path / "no-corpus", "empty": tmp_path / "empty"}
    dirs["empty"].mkdir()
    (dirs["empty"] / "notes.txt").write_text("not a cloud\n", encoding="utf-8")
    conf = re.sub(rf"^{re.escape(key)} = .*\n", "", EXPERIMENT_CONF.format(corpus=corpus), flags=re.M)
    conf += f"{key} = {value.format(**dirs)}\n"
    assert run_experiment(corpus, tmp_path / "exp", conf) == 3
    assert f"data error: {message.format(**dirs)}" in capsys.readouterr().err
    assert not (tmp_path / "exp" / "report.csv").exists()


def test_missing_input_files_exit_3(archive, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert harness.main(["train", "--pairs", str(archive), "--out", str(tmp_path / "run"), "--config", str(missing)]) == 3
    assert f"data error: config file {missing} does not exist" in capsys.readouterr().err
    assert harness.main(["register", "--method", "icp", "--source", str(missing), "--target", str(missing)]) == 3
    assert f"data error: cloud file {missing} does not exist" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_usage_errors_exit_2(archive, tmp_path, capsys, rng):
    src = write_cloud(tmp_path, rng.normal(size=(16, 3)), "s.xyz")
    assert harness.main(["register", "--method", "oracle", "--source", str(src), "--target", str(src)]) == 2
    assert "usage error: the oracle method needs ground truth and is experiment-only" in capsys.readouterr().err
    assert harness.main(["train", "--pairs", str(archive), "--out", str(tmp_path / "run")]) == 2
    assert "usage error: set --seed or a seed in the config file" in capsys.readouterr().err
    assert harness.main(["bench", "--out", str(tmp_path / "bench"), "--methods", "oracle", "--sizes", "32"]) == 2
    assert "usage error: the oracle method needs ground truth and cannot be timed" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "bench").exists()


def test_train_non_finite_loss_exits_4_and_keeps_the_last_checkpoint(archive, tmp_path, capsys, monkeypatch):
    """The loss turns NaN once the first epoch's checkpoint is saved; that
    checkpoint stays, equal to a one-epoch run's."""
    conf = tmp_path / "model.conf"
    conf.write_text(TINY_MODEL_CONF + "train.batch_size = 4\n", encoding="utf-8")
    argv = ["train", "--pairs", str(archive), "--config", str(conf), "--seed", "3"]
    assert harness.main(argv + ["--out", str(tmp_path / "one"), "--epochs", "1"]) == 0
    saved = []
    save, loss = train_mod.save_checkpoint, dcpnet.dcp_loss

    def save_spy(model, path):
        save(model, path)
        saved.append(path)

    def poisoned_loss(*args):
        out = loss(*args)
        if saved:
            out.data = np.full_like(out.data, np.nan)
        return out

    monkeypatch.setattr(train_mod, "save_checkpoint", save_spy)
    monkeypatch.setattr(dcpnet, "dcp_loss", poisoned_loss)
    capsys.readouterr()
    assert harness.main(argv + ["--out", str(tmp_path / "two"), "--epochs", "2"]) == 4
    err = capsys.readouterr().err
    assert "numerical failure: non-finite training loss at epoch 1; last checkpoint retained" in err
    final = tmp_path / "two" / "checkpoints" / "model_final.dcpk"
    assert saved == [final]
    train_mod.load_checkpoint(final)
    assert final.read_bytes() == (tmp_path / "one" / "checkpoints" / "model_final.dcpk").read_bytes()
