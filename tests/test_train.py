import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpreg import autodiff as ad, dataio, dcpnet, geometry as geo, train
from dcpreg.errors import CheckpointError, InvalidInputError, NumericalError

from conftest import npy_bytes, random_rotation, rewrite_checkpoint, save_with_config_bytes

TINY = dcpnet.ModelConfig(
    embedding="dgcnn", widths=(4, 4), emb_dims=8, attention=False,
    knn_k=3, head="svd", dtype="float32",
)


def make_pairs(n_pairs, n_points=24, seed=0, max_rot=30.0):
    rng = np.random.default_rng(seed)
    pairs = []
    cfg = dataio.PairGenConfig(max_rot_deg=max_rot, trans_bound=0.3, shuffle_target=True)
    for i in range(n_pairs):
        cloud = dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(n_points, 3))))
        pairs.append(dataio.generate_pair(cloud, cfg, rng))
    return pairs


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    p = {"w": ad.tensor(np.array([1.0, -2.0]), requires_grad=True)}
    state = train.OptimizerState(lr=0.001, weight_decay=0.0)
    before = p["w"].data.copy()
    train.adam_step(p, {"w": np.zeros(2)}, state)
    assert np.array_equal(p["w"].data, before)


def test_adam_first_step_analytic():
    p = {"w": ad.tensor(np.array(0.5), requires_grad=True)}
    state = train.OptimizerState(lr=0.001, weight_decay=0.0)
    train.adam_step(p, {"w": np.array(1.0)}, state)
    delta = float(p["w"].data) - 0.5
    assert abs(delta + 0.001) < 1e-6  # bias-corrected m_hat = v_hat = 1


def test_adam_weight_decay_is_decoupled():
    p = {"w": ad.tensor(np.array(2.0), requires_grad=True)}
    state = train.OptimizerState(lr=0.1, weight_decay=0.01)
    train.adam_step(p, {"w": np.array(0.0)}, state)
    # Zero gradient: only the decay term moves the parameter.
    assert np.isclose(float(p["w"].data), 2.0 * (1 - 0.1 * 0.01))


def test_adam_parameter_without_gradient_moves_by_weight_decay_alone():
    """A parameter missing from ``grads`` (no path from the loss reached
    it) takes a zero gradient: its moments stay 0 and only the decay moves
    it. Dyadic values make ``p * (1 - lr * wd)`` exact."""
    p = {"w": ad.tensor(np.array([2.0, -4.0]), requires_grad=True),
         "unused": ad.tensor(np.array([2.0, -4.0, 0.5]), requires_grad=True)}
    state = train.OptimizerState(lr=0.5, weight_decay=0.25)
    train.adam_step(p, {"w": np.array([1.0, 1.0])}, state)
    assert np.array_equal(p["unused"].data, np.array([2.0, -4.0, 0.5]) * (1 - 0.5 * 0.25))
    assert np.array_equal(state.m["unused"], np.zeros(3)) and np.array_equal(state.v["unused"], np.zeros(3))
    assert not np.array_equal(p["w"].data, p["unused"].data[:2])


def test_adam_descends_scalar_quadratic():
    p = {"w": ad.tensor(np.array(1.0), requires_grad=True)}
    state = train.OptimizerState(lr=0.01, weight_decay=0.0)
    for _ in range(200):
        g = 2.0 * p["w"].data
        train.adam_step(p, {"w": np.asarray(g)}, state)
    assert abs(float(p["w"].data)) < 0.5


def test_adam_nan_gradient_names_parameter():
    p = {"bad_param": ad.tensor(np.array(1.0), requires_grad=True)}
    with pytest.raises(NumericalError) as exc:
        train.adam_step(p, {"bad_param": np.array(np.nan)}, train.OptimizerState())
    assert "bad_param" in str(exc.value)


# ---------------------------------------------------------------------------
# lr schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_paper_milestones():
    kw = dict(base_lr=1e-3, milestones=(75, 150, 200), factor=0.1)
    assert train.lr_schedule(0, **kw) == pytest.approx(1e-3)
    assert train.lr_schedule(74, **kw) == pytest.approx(1e-3)
    assert train.lr_schedule(75, **kw) == pytest.approx(1e-4)
    assert train.lr_schedule(150, **kw) == pytest.approx(1e-5)
    assert train.lr_schedule(249, **kw) == pytest.approx(1e-6)


def test_lr_schedule_desk_preset():
    cfg = train.TrainConfig()
    assert cfg.lr_milestones == (15, 30, 40)
    assert train.lr_schedule(20, cfg.base_lr, cfg.lr_milestones, cfg.lr_factor) == pytest.approx(1e-4)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_zero_for_oracle(rng):
    gts = [geo.RigidTransform(random_rotation(rng), rng.normal(size=3)) for _ in range(5)]
    errors = [geo.rotation_metrics(gt, gt) for gt in gts]
    m = train.pool_metrics(errors)
    assert m.mse_r == 0 and m.mae_r == 0 and m.mse_t == 0


def test_metrics_identity_predictor_pooling():
    gt = geo.RigidTransform(geo.euler_zyx_to_matrix(math.radians(30), 0, 0), np.zeros(3))
    errors = [geo.rotation_metrics(geo.RigidTransform.identity(), gt) for _ in range(4)]
    m = train.pool_metrics(errors)
    assert m.mae_r == pytest.approx(10.0, abs=1e-9)  # (30 + 0 + 0) / 3
    assert m.mse_r == pytest.approx(300.0, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 50), min_size=3, max_size=3), st.lists(st.floats(0, 1), min_size=3, max_size=3))
def test_metrics_rmse_is_sqrt_mse(rot_deg, trans):
    err = geo.TransformErrors(
        rot_sq_deg=np.array(rot_deg) ** 2,
        rot_abs_deg=np.abs(rot_deg),
        trans_sq=np.array(trans) ** 2,
        trans_abs=np.abs(trans),
    )
    m = train.pool_metrics([err])
    assert m.rmse_r == pytest.approx(math.sqrt(m.mse_r), abs=1e-12)
    assert m.rmse_t == pytest.approx(math.sqrt(m.mse_t), abs=1e-12)
    assert min(m.row()) >= 0


# ---------------------------------------------------------------------------
# train()
# ---------------------------------------------------------------------------

def test_train_loss_decreases():
    pairs = make_pairs(30, seed=5)
    cfg = train.TrainConfig(epochs=4, batch_size=8, seed=1, lr_milestones=(100,))
    model, log = train.train(TINY, pairs[:24], val_pairs=pairs[24:], cfg=cfg)
    assert log[-1]["train_loss"] < log[0]["train_loss"]
    metrics = train.evaluate(pairs[24:], lambda pair: dcpnet.dcp_predict(pair.source, pair.target, model))
    assert metrics.n_pairs == 6
    assert metrics.rmse_r == pytest.approx(math.sqrt(metrics.mse_r), abs=1e-9)


def test_train_deterministic_checkpoints(tmp_path):
    pairs = make_pairs(10, seed=8)
    outputs = []
    for run in ("a", "b"):
        cfg = train.TrainConfig(epochs=2, batch_size=4, seed=9, out_dir=str(tmp_path / run))
        train.train(TINY, pairs, cfg=cfg)
        outputs.append((tmp_path / run / "checkpoints" / "model_final.dcpk").read_bytes())
    assert outputs[0] == outputs[1]
    log_a = (tmp_path / "a" / "training_log.csv").read_text()
    log_b = (tmp_path / "b" / "training_log.csv").read_text()
    assert log_a == log_b


def test_train_writes_periodic_checkpoints(tmp_path):
    """``checkpoint_every = 2`` over 3 epochs saves epoch index 1 and the
    final model, and the epoch checkpoint is the model a 2-epoch run ends
    with."""
    pairs = make_pairs(6, seed=3)
    runs = {}
    for epochs in (3, 2):
        cfg = train.TrainConfig(epochs=epochs, batch_size=3, seed=4, checkpoint_every=2,
                                out_dir=str(tmp_path / f"e{epochs}"))
        runs[epochs] = train.train(TINY, pairs, [], cfg)[0]
    assert sorted(p.name for p in (tmp_path / "e3" / "checkpoints").iterdir()) == ["epoch_0001.dcpk", "model_final.dcpk"]
    saved = train.load_checkpoint(tmp_path / "e3" / "checkpoints" / "epoch_0001.dcpk")
    two = runs[2]
    assert saved.config == two.config and saved.params.keys() == two.params.keys()
    for name, t in two.params.items():
        assert saved.params[name].data.dtype == t.data.dtype and np.array_equal(saved.params[name].data, t.data)
    for name, st in two.bn_states.items():
        assert np.array_equal(saved.bn_states[name].running_mean, st.running_mean)
        assert np.array_equal(saved.bn_states[name].running_var, st.running_var)
    assert not all(np.array_equal(runs[3].params[n].data, t.data) for n, t in two.params.items())


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_train_config_rejects_count_below_one(field):
    with pytest.raises(InvalidInputError, match=f"train.{field} must be at least 1, got 0"):
        train.TrainConfig(**{field: 0})


@pytest.mark.parametrize("milestones", [(-3,), (0, 15), (15, 0)])
def test_train_config_rejects_milestone_below_one(milestones):
    """A milestone below 1 would cut the rate from epoch 0, as a lower base_lr."""
    with pytest.raises(InvalidInputError, match="train.lr_milestones must each be at least 1"):
        train.TrainConfig(lr_milestones=milestones)


def test_train_config_rejects_negative_seed():
    with pytest.raises(InvalidInputError, match="seed must be at least 0, got -1"):
        train.TrainConfig(seed=-1)


@pytest.mark.parametrize("fraction", [3.0, -0.1, 1.0])
def test_train_config_rejects_val_fraction_outside_unit_interval(fraction):
    with pytest.raises(InvalidInputError, match="train.val_fraction"):
        train.TrainConfig(val_fraction=fraction)


@pytest.mark.parametrize("field, value", [
    ("base_lr", -1e-3), ("base_lr", float("nan")), ("base_lr", float("inf")),
    ("weight_decay", -1.0), ("weight_decay", float("nan")),
    ("lr_factor", -1.0), ("lr_factor", 0.0), ("lr_factor", float("inf")),
])
def test_train_config_rejects_rate_or_decay_out_of_range(field, value):
    """A negative or non-finite rate or decay, or a decay factor that is not
    above 0, would train backwards or to NaN; a zero rate is allowed."""
    with pytest.raises(InvalidInputError, match=f"train.{field} must be a finite number"):
        train.TrainConfig(**{field: value})
    assert train.TrainConfig(base_lr=0.0, weight_decay=0.0).base_lr == 0.0


def test_train_two_pairs_hold_out_one(monkeypatch):
    """A fraction that rounds to every pair still leaves one to train on,
    and validation never sees a training pair."""
    pairs = make_pairs(2, seed=6)
    trained, validated = [], []
    forward, evaluate = dcpnet.dcp_forward, train.evaluate

    def spy_forward(sources, targets, model):
        if ad.recording():
            trained.append(sources)
        return forward(sources, targets, model)

    def spy_evaluate(val_pairs, predict):
        validated.extend(val_pairs)
        return evaluate(val_pairs, predict)

    monkeypatch.setattr(dcpnet, "dcp_forward", spy_forward)
    monkeypatch.setattr(train, "evaluate", spy_evaluate)
    train.train(TINY, pairs, cfg=train.TrainConfig(epochs=1, batch_size=4, seed=1, val_fraction=0.9))
    assert trained == [[pairs[0].source]]  # one batch of the one training pair
    assert validated == [pairs[1]]


def test_train_zero_val_fraction_holds_out_nothing(monkeypatch):
    """``val_fraction=0`` trains on every pair and validates on none, with
    the NaN metrics of ``val_pairs=[]``."""
    pairs = make_pairs(4, seed=6)
    trained = []
    forward = dcpnet.dcp_forward

    def spy_forward(sources, targets, model):
        if ad.recording():
            trained.extend(sources)
        return forward(sources, targets, model)

    def no_evaluate(model, val_pairs):
        raise AssertionError("validation ran with val_fraction=0")

    monkeypatch.setattr(dcpnet, "dcp_forward", spy_forward)
    monkeypatch.setattr(train, "evaluate", no_evaluate)
    _, log = train.train(TINY, pairs, cfg=train.TrainConfig(epochs=1, batch_size=4, seed=1, val_fraction=0.0))
    assert sorted(id(s) for s in trained) == sorted(id(p.source) for p in pairs)
    assert all(math.isnan(log[0][c]) for c in train.Metrics.COLUMNS)


def test_train_logs_mean_gradient_norm():
    """One batch of every pair: grad_norm is the L2 norm, over all
    parameters, of the gradient of the batch-mean loss, from one forward
    whose batch norm statistics span the batch."""
    pairs = make_pairs(3, seed=7)
    cfg = train.TrainConfig(epochs=1, batch_size=3, seed=4)
    _, log = train.train(TINY, pairs, val_pairs=[], cfg=cfg)
    init_seed = int(np.random.SeedSequence(4).spawn(2)[0].generate_state(1)[0])
    model = dcpnet.ModelParams.initialize(TINY, seed=init_seed)
    with ad.Tape() as tape:
        out = dcpnet.dcp_forward([p.source for p in pairs], [p.target for p in pairs], model)
        loss = dcpnet.dcp_loss(out.rotation, out.translation, [p.ground_truth for p in pairs])
    grads = [g.astype(np.float64) for g in ad.backward(tape, loss).values()]
    want = math.sqrt(sum(float((g * g).sum()) for g in grads))
    assert log[0]["grad_norm"] == pytest.approx(want, rel=1e-5)
    assert want > 0


def test_train_one_tape_per_batch(monkeypatch):
    """A training step on a batch of 4 pairs records exactly as many tape
    entries as one on a batch of 2: the tape grows with the model, not the
    batch."""
    pairs = make_pairs(4, seed=12)
    entries = []
    backward = ad.backward

    def spy_backward(tape, output):
        entries.append(len(tape.entries))
        return backward(tape, output)

    monkeypatch.setattr(ad, "backward", spy_backward)
    for batch_size in (4, 2):
        train.train(TINY, pairs, val_pairs=[], cfg=train.TrainConfig(epochs=1, batch_size=batch_size, seed=3))
    assert len(entries) == 3  # one batch of 4, then two of 2
    assert entries[0] == entries[1] == entries[2] > 0


def test_train_batch_of_mixed_cloud_sizes_raises(tmp_path, monkeypatch):
    """Mixed sizes among the training pairs fail before any forward pass and
    before ``out_dir`` exists; only the validation pairs may differ."""
    def no_forward(*args, **kwargs):
        raise AssertionError("a forward pass ran before the mixed sizes were rejected")

    monkeypatch.setattr(dcpnet, "dcp_forward", no_forward)
    pairs = make_pairs(2, n_points=16, seed=13) + make_pairs(2, n_points=20, seed=14)
    cfg = train.TrainConfig(epochs=1, batch_size=4, seed=3, out_dir=str(tmp_path / "run"))
    with pytest.raises(InvalidInputError, match=r"\[\(16, 16\), \(20, 20\)\]"):
        train.train(TINY, pairs, val_pairs=[], cfg=cfg)
    assert not (tmp_path / "run").exists()
    monkeypatch.undo()
    model, _ = train.train(TINY, pairs[:2], val_pairs=pairs[2:], cfg=replace(cfg, out_dir=None))
    assert model.config == TINY


@pytest.mark.parametrize(
    "n, batch_size, sizes",
    [(8, 4, [4, 4]), (9, 4, [4, 5]), (10, 4, [4, 4, 2]), (1, 4, [1]), (3, 1, [1, 1, 1])],
)
def test_trailing_lone_pair_joins_previous_batch(n, batch_size, sizes):
    batches = train._batches(np.arange(n), batch_size)
    assert [len(b) for b in batches] == sizes
    assert np.array_equal(np.concatenate(batches), np.arange(n))


@pytest.mark.parametrize("n_pairs, batch_size", [(4, 1), (2, 4)])
def test_train_mlp_head_needs_batches_of_two(n_pairs, batch_size):
    """The MLP head's batch norm has no statistics on a lone pair; training
    says so before it starts, not at batch norm in the first step."""
    cfg = replace(TINY, head="mlp", mlp_head_widths=(8, 4))
    pairs = make_pairs(n_pairs, seed=15)
    with pytest.raises(InvalidInputError, match="at least 2 pairs"):
        train.train(cfg, pairs, cfg=train.TrainConfig(epochs=1, batch_size=batch_size, seed=3))


def test_train_zero_lr_is_fixed_point():
    pairs = make_pairs(6, seed=11)
    cfg = train.TrainConfig(epochs=1, batch_size=3, base_lr=0.0, weight_decay=0.0, seed=2)
    model, _ = train.train(TINY, pairs, cfg=cfg)
    fresh_seed = int(np.random.SeedSequence(2).spawn(2)[0].generate_state(1)[0])
    fresh = dcpnet.ModelParams.initialize(TINY, seed=fresh_seed)
    for name, p in model.params.items():
        assert np.array_equal(p.data, fresh.params[name].data), name


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_roundtrip_bitwise(tmp_path, dtype):
    model = dcpnet.ModelParams.initialize(
        replace(TINY, attention=True, heads=2, ffn_dims=16, dtype=dtype), seed=21
    )
    path = tmp_path / "model.dcpk"
    train.save_checkpoint(model, path)
    back = train.load_checkpoint(path)
    assert back.config == model.config
    assert set(back.params) == set(model.params)
    for name, p in model.params.items():
        assert np.array_equal(back.params[name].data, p.data)
        assert back.params[name].dtype == p.dtype
    for name, st_ in model.bn_states.items():
        assert np.array_equal(back.bn_states[name].running_mean, st_.running_mean)
        assert np.array_equal(back.bn_states[name].running_var, st_.running_var)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.dcpk"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError) as exc:
        train.load_checkpoint(path)
    assert "magic" in str(exc.value)


def test_checkpoint_truncated(tmp_path):
    model = dcpnet.ModelParams.initialize(TINY, seed=22)
    path = tmp_path / "model.dcpk"
    train.save_checkpoint(model, path)
    blob = path.read_bytes()
    (tmp_path / "cut.dcpk").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        train.load_checkpoint(tmp_path / "cut.dcpk")


def test_checkpoint_version_mismatch(tmp_path):
    model = dcpnet.ModelParams.initialize(TINY, seed=23)
    path = tmp_path / "v99.dcpk"
    train.save_checkpoint(model, path)
    rewrite_checkpoint(path, {"__version__.npy": np.array(99)})
    with pytest.raises(CheckpointError) as exc:
        train.load_checkpoint(path)
    assert "version 99" in str(exc.value)


def test_checkpoint_dtype_mismatch(tmp_path):
    # float64 weights under a config that says float32.
    model = dcpnet.ModelParams.initialize(replace(TINY, dtype="float64"), seed=24)
    raw = dict(asdict(model.config), dtype="float32")
    path = tmp_path / "model64.dcpk"
    save_with_config_bytes(model, path, json.dumps(raw, sort_keys=True).encode("utf-8"))
    with pytest.raises(CheckpointError) as exc:
        train.load_checkpoint(path)
    assert "float64" in str(exc.value) and "float32" in str(exc.value)


def test_checkpoint_is_a_numpy_archive(tmp_path):
    model = dcpnet.ModelParams.initialize(TINY, seed=27)
    path = tmp_path / "model.dcpk"
    train.save_checkpoint(model, path)
    with np.load(path, allow_pickle=False) as archive:
        params = sorted(name[len("param/") :] for name in archive.files if name.startswith("param/"))
        assert params == sorted(model.params)
        assert np.array_equal(archive["param/embed.l0.wa"], model.params["embed.l0.wa"].data)
        assert archive["__version__"] == train.CHECKPOINT_VERSION
        assert json.loads(archive["__config__"].tobytes()) == json.loads(json.dumps(asdict(model.config)))


@pytest.mark.parametrize(
    "replace_members, drop, match",
    [
        ({}, ["__version__.npy"], "version None"),
        ({}, ["__config__.npy"], "missing model configuration"),
        ({"junk.npy": np.zeros(2)}, [], "unexpected record 'junk'"),
        ({}, ["bnstate/embed.l0.bn/var.npy"], "missing record 'bnstate/embed.l0.bn/var'"),
        ({"bnstate/stray.npy": np.zeros(2)}, [], "unexpected record 'bnstate/stray'"),
        ({"param/embed.l0.wa.npy": b"not an npy member"}, [], "unreadable"),
        ({"param/embed.l0.wa.npy": npy_bytes(np.zeros((3, 4), np.float32))[:-8]}, [], "unreadable"),
        ({}, ["param/embed.l1.wb.npy"], "missing record 'param/embed.l1.wb'"),
        ({"param/embed.l3.wa.npy": np.zeros((8, 8), np.float32)}, [], "unexpected record 'param/embed.l3.wa'"),
        ({"param/embed.l0.wa.npy": np.zeros((3, 5), np.float32)}, [],
         r"record 'param/embed.l0.wa' has shape \(3, 5\), not \(3, 4\)"),
        ({}, ["bnstate/embed.l1.bn/mean.npy"], "missing record 'bnstate/embed.l1.bn/mean'"),
        ({"bnstate/embed.l3.bn/mean.npy": np.zeros(8, np.float32), "bnstate/embed.l3.bn/var.npy": np.ones(8, np.float32)},
         [], "unexpected record 'bnstate/embed.l3.bn/mean'; unexpected record 'bnstate/embed.l3.bn/var'"),
        ({"bnstate/embed.l1.bn/mean.npy": np.zeros(5, np.float32), "bnstate/embed.l1.bn/var.npy": np.ones(5, np.float32)},
         [], r"record 'bnstate/embed.l1.bn/mean' has shape \(5,\), not \(4,\)"),
    ],
    ids=["no-version", "no-config", "stray-record", "half-bn-state", "bn-state-without-kind", "not-npy", "cut-npy",
         "missing-param", "extra-param", "misshaped-param", "missing-bn-state", "extra-bn-state", "misshaped-bn-state"],
)
def test_checkpoint_malformed_archive(tmp_path, replace_members, drop, match):
    """A checkpoint must be readable and hold exactly the tensors of its own
    configuration's table, at its shapes; each fault is named, where
    inference would otherwise fail on a bare lookup or a shape mismatch."""
    model = dcpnet.ModelParams.initialize(TINY, seed=28)
    path = tmp_path / "model.dcpk"
    train.save_checkpoint(model, path)
    rewrite_checkpoint(path, replace_members, drop)
    with pytest.raises(CheckpointError, match=match):
        train.load_checkpoint(path)


@pytest.mark.parametrize(
    "kind, value, match",
    [
        ("mean", np.array([0.0, np.nan, 0.0, 0.0], np.float32), "not finite"),
        ("var", np.array([1.0, 1.0, np.inf, 1.0], np.float32), "not finite"),
        ("var", np.array([1.0, -1.0, 1.0, 1.0], np.float32), "negative variance"),
        ("var", np.ones(5, np.float32), r"record 'bnstate/embed.l1.bn/var' has shape \(5,\), not \(4,\)"),
        ("mean", np.array(["a", "b", "c", "d"]), "record 'bnstate/embed.l1.bn/mean' dtype <U1 != float32"),
        ("var", np.ones(4, np.float64), "record 'bnstate/embed.l1.bn/var' dtype float64 != float32"),
    ],
    ids=["nan-mean", "inf-var", "negative-var", "shape-mismatch", "text-mean", "float64-var"],
)
def test_checkpoint_bad_bn_state(tmp_path, kind, value, match):
    model = dcpnet.ModelParams.initialize(TINY, seed=29)
    path = tmp_path / "model.dcpk"
    train.save_checkpoint(model, path)
    rewrite_checkpoint(path, {f"bnstate/embed.l1.bn/{kind}.npy": value})
    with pytest.raises(CheckpointError, match=match):
        train.load_checkpoint(path)


def test_checkpoint_unknown_config_key(tmp_path):
    model = dcpnet.ModelParams.initialize(TINY, seed=25)
    raw = dict(asdict(model.config), dynamic_graph=False)
    path = tmp_path / "stale.dcpk"
    save_with_config_bytes(model, path, json.dumps(raw, sort_keys=True).encode("utf-8"))
    with pytest.raises(CheckpointError) as exc:
        train.load_checkpoint(path)
    assert "dynamic_graph" in str(exc.value)


@pytest.mark.parametrize("cfg_bytes", [b"{not json", b"\xff\xfe", b"[1, 2]"])
def test_checkpoint_undecodable_config(tmp_path, cfg_bytes):
    model = dcpnet.ModelParams.initialize(TINY, seed=26)
    path = tmp_path / "garbled.dcpk"
    save_with_config_bytes(model, path, cfg_bytes)
    with pytest.raises(CheckpointError) as exc:
        train.load_checkpoint(path)
    assert "configuration" in str(exc.value)


def test_checkpoint_predictions_survive_roundtrip(tmp_path):
    pairs = make_pairs(3, seed=30)
    model, _ = train.train(TINY, pairs, cfg=train.TrainConfig(epochs=1, batch_size=3, seed=4))
    path = tmp_path / "m.dcpk"
    train.save_checkpoint(model, path)
    back = train.load_checkpoint(path)
    pred_a = dcpnet.dcp_predict(pairs[0].source, pairs[0].target, model)
    pred_b = dcpnet.dcp_predict(pairs[0].source, pairs[0].target, back)
    assert np.array_equal(pred_a.rotation, pred_b.rotation)
    assert np.array_equal(pred_a.translation, pred_b.translation)
