"""Command-line orchestration of the registration experiments.

Subcommands: ``gen-data``, ``register``, ``train``, ``eval``,
``experiment``, ``bench``. All randomness is seeded; reports embed the
config hash and rerun byte-identically. Exit codes: 0 success, 2 usage
error, 3 data error, 4 numerical failure.

Config files (``train``, ``experiment`` and ``bench --config``) hold
``key = value`` lines. The key tables ``MODEL_KEYS``, ``TRAIN_KEYS``,
``PAIRGEN_KEYS`` and ``EXPERIMENT_KEYS``, with ``OTHER_KEYS``, are the one
list of config keys. Each table entry names the dataclass field its key
sets, and a key left unset keeps the default that dataclass declares. An
unknown key exits 3.
"""

from __future__ import annotations

import argparse
import hashlib
import platform
import re
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, dataio, dcpnet, geometry as geo, icp, train as train_mod
from .errors import DataError, DcpregError, InvalidInputError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(DcpregError):
    pass


# ---------------------------------------------------------------------------
# Config files: key = value, '#' comments, dotted section keys
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """The ``key = value`` lines of ``text``; a key set twice is a ``DataError``."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise DataError(f"config key {key} is set twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        values[key] = value
    return values


def load_config_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"config file {path} does not exist")
    values = parse_config_text(path.read_text(encoding="utf-8"))
    _check_keys(values)
    return values


def config_hash(values: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={values[k]}" for k in sorted(values))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _seed(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("a seed must be at least 0")
    return value


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


KIND_DEFAULTS = {
    "full": {},
    "category": {"split.mode": "by_category"},
    "noise": {"noise.eval": "true"},
    "polish": {},
    "ablation": {},
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    corpus: str
    seed: int
    methods: tuple[Method, ...]
    n_points: int = 128
    split_mode: str = "random_instance"
    split_fraction: float = 0.5
    pairs_per_cloud_train: int = 4
    pairs_per_cloud_test: int = 2
    pairgen: dataio.PairGenConfig = dataio.PairGenConfig()
    noise_train: bool = False
    noise_eval: bool = False
    model: dcpnet.ModelConfig = dcpnet.ModelConfig()
    train: train_mod.TrainConfig = train_mod.TrainConfig()
    icp_max_iters: int = icp.DEFAULT_MAX_ITERS
    icp_tol: float = icp.DEFAULT_TOL
    raw: tuple[tuple[str, str], ...] = ()

    def hash(self) -> str:
        return config_hash(dict(self.raw))


# The key tables: config key -> (dataclass field, converter).
MODEL_KEYS = {
    f"model.{name}": (name, conv)
    for name, conv in (("embedding", str), ("widths", _int_tuple), ("emb_dims", int), ("heads", int),
                       ("ffn_dims", int), ("knn_k", int), ("head", str), ("dtype", str))
}
TRAIN_KEYS = {
    "train.epochs": ("epochs", _positive_int),
    "train.batch_size": ("batch_size", _positive_int),
    "train.base_lr": ("base_lr", float),
    "train.milestones": ("lr_milestones", _int_tuple),
    "train.lr_factor": ("lr_factor", float),
    "train.weight_decay": ("weight_decay", float),
    "train.val_fraction": ("val_fraction", float),
    "train.checkpoint_every": ("checkpoint_every", int),
}
PAIRGEN_KEYS = {
    "pairgen.max_rot_deg": ("max_rot_deg", float),
    "pairgen.trans_bound": ("trans_bound", float),
    "pairgen.shuffle_target": ("shuffle_target", _bool),
    "noise.sigma": ("noise_sigma", float),
    "noise.clip": ("noise_clip", float),
}
EXPERIMENT_KEYS = {
    "data.n_points": ("n_points", int),
    "split.mode": ("split_mode", str),
    "split.fraction": ("split_fraction", float),
    "pairs.per_cloud_train": ("pairs_per_cloud_train", _positive_int),
    "pairs.per_cloud_test": ("pairs_per_cloud_test", _positive_int),
    "noise.train": ("noise_train", _bool),
    "noise.eval": ("noise_eval", _bool),
    "icp.max_iters": ("icp_max_iters", _positive_int),
    "icp.tol": ("icp_tol", float),
}
# Keys that experiment_config_from_values and cmd_train read themselves.
OTHER_KEYS = ("seed", "methods", "experiment.kind", "data.corpus")


def _check_keys(values: dict[str, str]) -> None:
    """Raise ``DataError`` naming each key of ``values`` that no key table lists."""
    unknown = sorted(set(values) - {*MODEL_KEYS, *TRAIN_KEYS, *PAIRGEN_KEYS, *EXPERIMENT_KEYS, *OTHER_KEYS})
    if unknown:
        raise DataError(f"unknown config key(s) {', '.join(unknown)}; the known keys are the tables in dcpreg.harness")


def _note_ignored_keys(command: str, values: dict[str, str], read: set[str]) -> None:
    """Print one line to stderr naming the keys of ``values`` that ``command``
    accepts but does not read: one config file serves every command."""
    ignored = sorted(set(values) - read)
    if ignored:
        print(f"dcpreg {command}: ignoring config key(s) {', '.join(ignored)}", file=sys.stderr)


def _convert(values: dict[str, str], key: str, conv):
    """``conv(values[key])``; a value ``conv`` cannot read raises ``DataError`` naming the key."""
    try:
        return conv(values[key])
    except ValueError as exc:
        raise DataError(f"config key {key}: bad value {values[key]!r} ({exc})") from None


def _from_values(cls, table, values: dict[str, str], **fields):
    """``cls(**fields)`` plus the fields that the ``table`` keys set in
    ``values``; every other field keeps the default ``cls`` declares."""
    fields.update((field, _convert(values, key, conv)) for key, (field, conv) in table.items() if key in values)
    return cls(**fields)


def model_config_from_values(values: dict[str, str]) -> dcpnet.ModelConfig:
    """The ``ModelConfig`` set by the ``model.*`` keys of ``values``; a key no table lists is a ``DataError``."""
    _check_keys(values)
    return _from_values(dcpnet.ModelConfig, MODEL_KEYS, values)


def experiment_config_from_values(values: dict[str, str]) -> ExperimentConfig:
    kind = values.get("experiment.kind", "full")
    if kind not in KIND_DEFAULTS:
        raise DataError(f"unknown experiment kind {kind!r}; options: {sorted(KIND_DEFAULTS)}")
    merged = {**KIND_DEFAULTS[kind], **values}
    if "seed" not in merged:
        raise DataError("config must set a seed")
    if "data.corpus" not in merged:
        raise DataError("config must set data.corpus")
    corpus = merged["data.corpus"]
    if not Path(corpus).is_dir():
        raise DataError(f"corpus directory {corpus} does not exist")
    seed = _convert(merged, "seed", _seed)
    methods = parse_methods(merged.get("methods", "icp,dcp-v1"))
    model = model_config_from_values(merged)
    for method in methods:
        if method.base == "dcp":
            method_model_config(model, method)  # fail before any method runs
    cfg = _from_values(
        ExperimentConfig, EXPERIMENT_KEYS, merged, kind=kind, corpus=corpus, seed=seed, methods=methods,
        model=model, train=_from_values(train_mod.TrainConfig, TRAIN_KEYS, merged, seed=seed),
        raw=tuple(sorted(values.items())),
    )
    return replace(cfg, pairgen=_from_values(dataio.PairGenConfig, PAIRGEN_KEYS, merged, n_points=cfg.n_points))


# ---------------------------------------------------------------------------
# Method tokens
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Method:
    name: str
    base: str  # oracle | icp | dcp
    attention: bool = False
    polish: bool = False
    overrides: tuple[tuple[str, object], ...] = ()  # (ModelConfig field, value)


_CHOICE_MODIFIERS = {"embedding": ("dgcnn", "pointnet"), "head": ("svd", "mlp")}
_INT_MODIFIERS = {"dims": "emb_dims", "emb_dims": "emb_dims", "k": "knn_k", "knn_k": "knn_k", "heads": "heads"}


def parse_method(token: str) -> Method:
    """Parse one method token; this is the grammar every subcommand reads.

    ::

        token    = "oracle" | "icp" | "dcp" ["-v1" | "-v2"] ["+icp"] [":" mod {"," mod}]
        mod      = "pointnet" | "dgcnn" | "embedding=" ("pointnet" | "dgcnn")
                 | "svd" | "mlp" | "head=" ("svd" | "mlp")
                 | ("dims" | "emb_dims") "=" N      # ModelConfig.emb_dims
                 | ("k" | "knn_k") "=" N            # ModelConfig.knn_k
                 | "heads=" N                       # ModelConfig.heads

    ``dcp`` is ``dcp-v2`` (with the attention stage), ``-v1`` drops that
    stage, ``+icp`` polishes the DCP estimate with ICP, and N is a positive
    integer. Choosing an embedding also resets ``widths`` to its default.
    An unknown method or modifier, or a bad value, raises ``DataError``.
    """
    name = token.strip()
    if name in ("oracle", "icp"):
        return Method(name, name)
    core, _, mods = name.partition(":")
    polish = core.endswith("+icp")
    variant = core[: -len("+icp")] if polish else core
    if variant not in ("dcp", "dcp-v1", "dcp-v2"):
        raise DataError(f"unknown method {token!r}; see dcpreg.harness.parse_method for the grammar")
    overrides = []
    for mod in filter(None, (m.strip() for m in mods.split(","))):
        key, eq, val = (part.strip() for part in mod.partition("="))
        if not eq:
            key, val = next((k for k, options in _CHOICE_MODIFIERS.items() if mod in options), mod), mod
        if key in _CHOICE_MODIFIERS and val in _CHOICE_MODIFIERS[key]:
            overrides += [(key, val), ("widths", None)] if key == "embedding" else [(key, val)]
        elif key in _INT_MODIFIERS and val.isdecimal() and int(val) > 0:
            overrides.append((_INT_MODIFIERS[key], int(val)))
        else:
            raise DataError(f"unknown method modifier or bad value {mod!r} in {token!r}")
    return Method(name, "dcp", attention=variant != "dcp-v1", polish=polish, overrides=tuple(overrides))


def parse_methods(text: str) -> tuple[Method, ...]:
    """Parse a comma-separated token list.

    Only a comma followed by ``oracle``, ``icp`` or ``dcp`` starts a new
    token, so ``icp, dcp-v2:dims=16,heads=2`` is two tokens.
    """
    tokens = (tok.strip(" \t,") for tok in re.split(r",(?=\s*(?:oracle|icp|dcp))", text))
    return tuple(parse_method(tok) for tok in tokens if tok)


def method_model_config(base: dcpnet.ModelConfig, method: Method) -> dcpnet.ModelConfig:
    return replace(base, attention=method.attention, **dict(method.overrides))


def load_method_model(method: Method, checkpoint) -> dcpnet.ModelParams:
    """The model ``method`` asks for, with its weights from ``checkpoint``.

    The checkpoint must hold every parameter and normalisation state that
    model has, at the same shape; otherwise it cannot honour the token and
    this raises ``UsageError``.
    """
    if not checkpoint:
        raise UsageError(f"method {method.name} requires --checkpoint")
    loaded = train_mod.load_checkpoint(checkpoint)
    try:
        cfg = method_model_config(loaded.config, method)
    except InvalidInputError as exc:
        raise UsageError(f"checkpoint {checkpoint} cannot run {method.name}: {exc}") from None
    need = dcpnet.ModelParams.initialize(cfg, seed=0)
    have = _shapes(loaded)
    bad = sorted(name for name, shape in _shapes(need).items() if have.get(name) != shape)
    if bad:
        detail = f"{len(bad)} tensor(s) missing or mis-shaped, such as {', '.join(bad[:3])}"
        raise UsageError(f"checkpoint {checkpoint} cannot run {method.name}: {detail}")
    return dcpnet.ModelParams(cfg, loaded.params, loaded.bn_states)


def _shapes(model: dcpnet.ModelParams) -> dict[str, tuple[int, ...]]:
    shapes = {name: t.shape for name, t in model.params.items()}
    for name, state in model.bn_states.items():
        shapes[f"{name}/mean"], shapes[f"{name}/var"] = state.running_mean.shape, state.running_var.shape
    return shapes


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def load_clouds(corpus, n_points: int, seed: int) -> list[dataio.PointCloud]:
    """Every corpus cloud, sampled at ``n_points`` with one child seed each."""
    entries = dataio.scan_corpus(corpus)
    seeds = np.random.SeedSequence([seed, 0xC0]).generate_state(len(entries))
    return [
        dataio.load_corpus_cloud(label, path, n_points, int(s))
        for (label, path), s in zip(entries, seeds)
    ]


def build_pairs(clouds, per_cloud: int, pairgen: dataio.PairGenConfig, seed_key, noise: bool):
    """Deterministic labeled pairs: one child seed per (cloud, repeat)."""
    seq = np.random.SeedSequence(seed_key)
    seeds = seq.generate_state(len(clouds) * per_cloud, dtype=np.uint64)
    pairs, pair_seeds = [], []
    i = 0
    for cloud in clouds:
        for _ in range(per_cloud):
            seed = int(seeds[i])
            i += 1
            children = np.random.SeedSequence(seed).spawn(2)
            pair = dataio.generate_pair(cloud, pairgen, np.random.default_rng(children[0]))
            if noise and pairgen.noise_sigma > 0:
                pair = dataio.noisy_pair(
                    pair, pairgen.noise_sigma, pairgen.noise_clip, np.random.default_rng(children[1])
                )
            pairs.append(pair)
            pair_seeds.append(seed)
    return pairs, pair_seeds


# ---------------------------------------------------------------------------
# Per-method evaluation
# ---------------------------------------------------------------------------

def run_method(
    method: Method, model, source, target, max_iters, tol
) -> tuple[geo.RigidTransform, list[icp.IcpState]]:
    """Align ``source`` to ``target`` with an ``icp`` or ``dcp`` method.

    Returns the transform and ICP's per-iteration history, empty when the
    method runs no ICP."""
    if method.base == "icp":
        return icp.icp_register(source.points, target.points, max_iters=max_iters, tol=tol)
    pred = dcpnet.dcp_predict(source, target, model)
    if method.polish:
        return icp.icp_register(source.points, target.points, init=pred, max_iters=max_iters, tol=tol)
    return pred, []


def method_errors(method: Method, model, pairs, max_iters, tol):
    """Rotation and translation errors of ``method`` on each labeled pair."""
    if method.base == "oracle":
        return [geo.rotation_metrics(p.ground_truth, p.ground_truth) for p in pairs]
    return [
        geo.rotation_metrics(run_method(method, model, p.source, p.target, max_iters, tol)[0], p.ground_truth)
        for p in pairs
    ]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("method", "mse_r", "rmse_r", "mae_r", "mse_t", "rmse_t", "mae_t")
REPORT_HEADERS = ("Method", "MSE(R)", "RMSE(R)", "MAE(R)", "MSE(t)", "RMSE(t)", "MAE(t)")


def write_report(rows: list[tuple[str, train_mod.Metrics]], out_dir: Path, provenance: dict[str, str]):
    out_dir.mkdir(parents=True, exist_ok=True)
    prov_lines = [f"# {k}={v}" for k, v in provenance.items()]

    csv_lines = list(prov_lines)
    csv_lines.append(",".join(REPORT_COLUMNS))
    for name, metrics in rows:
        csv_lines.append(name + "," + ",".join(f"{v:.9f}" for v in metrics.row()))
    (out_dir / "report.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

    width = max(8, *(len(r[0]) for r in rows)) if rows else 8
    txt_lines = list(prov_lines)
    txt_lines.append(f"{'Method':<{width}}  " + "  ".join(f"{h:>12}" for h in REPORT_HEADERS[1:]))
    for name, metrics in rows:
        txt_lines.append(f"{name:<{width}}  " + "  ".join(f"{v:12.6f}" for v in metrics.row()))
    (out_dir / "report.txt").write_text("\n".join(txt_lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    pairgen = dataio.PairGenConfig(
        max_rot_deg=args.max_rot_deg,
        trans_bound=args.trans_bound,
        n_points=args.n_points,
        shuffle_target=not args.no_shuffle,
        noise_sigma=args.sigma,
        noise_clip=args.clip,
    )
    clouds = load_clouds(args.corpus, args.n_points, args.seed)
    pairs, pair_seeds = build_pairs(clouds, args.pairs_per_cloud, pairgen, [args.seed, 0xDA], args.noise)
    dataio.write_pair_archive(pairs, args.out, seeds=pair_seeds)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return EXIT_OK


def _load_cli_cloud(path: str, n_points: int, seed: int) -> dataio.PointCloud:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"cloud file {p} does not exist")
    if p.suffix.lower() == ".off":
        return dataio.sample_surface(dataio.load_off_mesh(p), n_points, seed)
    return dataio.load_xyz(p)


def cmd_register(args) -> int:
    method = args.method
    if method.base == "oracle":
        raise UsageError("the oracle method needs ground truth and is experiment-only")
    model = load_method_model(method, args.checkpoint) if method.base == "dcp" else None
    source = _load_cli_cloud(args.source, args.n_points, args.seed)
    target = _load_cli_cloud(args.target, args.n_points, args.seed + 1)

    transform, history = run_method(method, model, source, target, args.max_iters, args.tol)
    vals = list(transform.rotation.reshape(-1)) + list(transform.translation)
    print(" ".join(f"{v:.12g}" for v in vals))
    if history:
        # Every history entry after the first follows one alignment step.
        print(f"icp: {len(history) - 1} iterations, final objective {history[-1].objective:.12g}", file=sys.stderr)
    if args.out:
        aligned = geo.apply_transform(transform, source.points)
        dataio.save_xyz(dataio.PointCloud(aligned), args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    values = load_config_file(args.config) if args.config else {}
    _note_ignored_keys("train", values, {*MODEL_KEYS, *TRAIN_KEYS, "seed"})
    if args.seed is not None:
        values["seed"] = str(args.seed)
    if args.epochs is not None:
        values["train.epochs"] = str(args.epochs)
    if "seed" not in values:
        raise UsageError("set --seed or a seed in the config file")
    seed = _convert(values, "seed", _seed)
    model_cfg = model_config_from_values(values)
    if args.v1:
        model_cfg = replace(model_cfg, attention=False)
    tcfg = _from_values(train_mod.TrainConfig, TRAIN_KEYS, values, seed=seed, out_dir=args.out)
    pairs = dataio.read_pair_archive(args.pairs)
    val_pairs = dataio.read_pair_archive(args.val_pairs) if args.val_pairs else None
    model, log = train_mod.train(model_cfg, pairs, val_pairs, tcfg)
    final = Path(args.out) / "checkpoints" / "model_final.dcpk"
    print(f"trained {tcfg.epochs} epochs; final loss {log[-1]['train_loss']:.6f}")
    print(f"checkpoint: {final}")
    return EXIT_OK


def cmd_eval(args) -> int:
    method = args.method
    model = load_method_model(method, args.checkpoint) if method.base == "dcp" else None
    pairs = dataio.read_pair_archive(args.pairs)
    errors = method_errors(method, model, pairs, args.max_iters, args.tol)
    metrics = train_mod.pool_metrics(errors)
    print(f"{'metric':>8}  " + "  ".join(f"{c:>12}" for c in train_mod.Metrics.COLUMNS))
    print(f"{method.name:>8}  " + "  ".join(f"{v:12.6f}" for v in metrics.row()))
    if args.out:
        write_report([(method.name, metrics)], Path(args.out), {"version": __version__})
    return EXIT_OK


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> list[tuple[str, train_mod.Metrics]]:
    clouds = load_clouds(cfg.corpus, cfg.n_points, cfg.seed)
    train_clouds, test_clouds = dataio.dataset_split(
        clouds, cfg.split_mode, cfg.split_fraction, seed=cfg.seed
    )
    if not train_clouds or not test_clouds:
        raise DataError("split produced an empty side; adjust split.fraction or corpus size")
    train_pairs, _ = build_pairs(
        train_clouds, cfg.pairs_per_cloud_train, cfg.pairgen, [cfg.seed, 0x7A], cfg.noise_train
    )
    test_pairs, _ = build_pairs(
        test_clouds, cfg.pairs_per_cloud_test, cfg.pairgen, [cfg.seed, 0x7E], cfg.noise_eval
    )

    trained: dict[dcpnet.ModelConfig, dcpnet.ModelParams] = {}
    rows: list[tuple[str, train_mod.Metrics]] = []
    for method in cfg.methods:
        model = None
        if method.base == "dcp":
            model_cfg = method_model_config(cfg.model, method)
            model = trained.get(model_cfg)
            if model is None:
                model, log = train_mod.train(model_cfg, train_pairs, None, cfg.train)
                trained[model_cfg] = model
                safe = method.name.replace("+", "_").replace(":", "_").replace("=", "-").replace(",", "_")
                (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
                train_mod.save_checkpoint(model, out_dir / "checkpoints" / f"{safe}.dcpk")
                train_mod.write_training_log(log, out_dir / f"training_log_{safe}.csv")
        errors = method_errors(method, model, test_pairs, cfg.icp_max_iters, cfg.icp_tol)
        rows.append((method.name, train_mod.pool_metrics(errors)))
    return rows


def cmd_experiment(args) -> int:
    values = load_config_file(args.config)
    cfg = experiment_config_from_values(values)
    out_dir = Path(args.out)
    rows = run_experiment(cfg, out_dir)
    provenance = {"config_hash": cfg.hash(), "version": __version__, "kind": cfg.kind, "seed": str(cfg.seed)}
    write_report(rows, out_dir, provenance)
    for line in (out_dir / "report.txt").read_text(encoding="utf-8").splitlines():
        print(line)
    return EXIT_OK


def bench_pair(n_points: int, seed: int):
    mesh = dataio.make_shape_mesh("ellipsoid", np.random.default_rng(seed))
    cloud = dataio.normalize_unit_sphere(dataio.sample_surface(mesh, n_points, seed))
    pairgen = dataio.PairGenConfig(max_rot_deg=30.0, trans_bound=0.3, n_points=n_points)
    return dataio.generate_pair(cloud, pairgen, np.random.default_rng(seed + 1))


def cmd_bench(args) -> int:
    values = load_config_file(args.config) if args.config else {}
    _note_ignored_keys("bench", values, set(MODEL_KEYS))
    base_model_cfg = model_config_from_values(values)

    def build(method):
        if method.base == "oracle":
            raise UsageError("the oracle method needs ground truth and cannot be timed")
        if method.base != "dcp":
            return None
        if args.checkpoint:
            return load_method_model(method, args.checkpoint)
        return dcpnet.ModelParams.initialize(method_model_config(base_model_cfg, method), seed=args.seed)

    models = [build(method) for method in args.methods]
    lines = [f"# hardware={platform.processor() or platform.machine()} ({platform.system()})"]
    lines.append("method,n_points,trials,p50_seconds,p90_seconds,min_seconds")
    print("method        n_points   trials    p50_seconds    p90_seconds    min_seconds")
    for method, model in zip(args.methods, models):
        for size in args.sizes:
            pair = bench_pair(size, args.seed)
            if model is not None and model.config.knn_k >= size:
                raise DataError(f"model knn_k={model.config.knn_k} too large for {size} points")

            def run_once():
                run_method(method, model, pair.source, pair.target, args.max_iters, icp.DEFAULT_TOL)

            run_once()  # warm-up outside the timed region
            times = []
            for _ in range(args.trials):
                start = time.perf_counter()
                run_once()
                times.append(time.perf_counter() - start)
            p50, p90 = np.percentile(times, [50, 90])
            low = min(times)
            lines.append(f"{method.name},{size},{args.trials},{p50:.6f},{p90:.6f},{low:.6f}")
            print(f"{method.name:<12}  {size:8d}  {args.trials:6d}   {p50:12.6f}   {p90:12.6f}   {low:12.6f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "timing.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

METHOD_HELP = "method token(s) such as dcp-v1+icp; grammar in dcpreg.harness.parse_method"


def _cli_tokens(parse):
    """An argparse ``type`` that reports a bad method token as a usage error."""
    def convert(text):
        try:
            return parse(text)
        except DataError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcpreg",
        description="Rigid point-cloud registration: classical ICP and learned soft matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a labeled pair archive from a mesh/cloud corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="pair archive file to write (a zip of .npy arrays)")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--pairs-per-cloud", type=_positive_int, default=1)
    p.add_argument("--n-points", type=int, default=dataio.PairGenConfig.n_points)
    p.add_argument("--max-rot-deg", type=float, default=dataio.PairGenConfig.max_rot_deg)
    p.add_argument("--trans-bound", type=float, default=dataio.PairGenConfig.trans_bound)
    p.add_argument("--noise", action="store_true", help="perturb source clouds with clipped Gaussian noise")
    p.add_argument("--sigma", type=float, default=dataio.PairGenConfig.noise_sigma)
    p.add_argument("--clip", type=float, default=dataio.PairGenConfig.noise_clip)
    p.add_argument("--no-shuffle", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("register", help="align one cloud to another, print 12-number transform")
    p.add_argument("--method", required=True, type=_cli_tokens(parse_method), help=METHOD_HELP)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--out", help="write the aligned source cloud as xyz")
    p.add_argument("--max-iters", type=_positive_int, default=icp.DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=float, default=icp.DEFAULT_TOL)
    p.add_argument("--n-points", type=_positive_int, default=1024, help="surface samples when input is an OFF mesh")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("train", help="train a model on a pair archive")
    p.add_argument("--pairs", required=True)
    p.add_argument("--val-pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value file with model.* and train.* settings")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--epochs", type=_positive_int)
    p.add_argument("--v1", action="store_true", help="disable the attention stage")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a method on a pair archive")
    p.add_argument("--pairs", required=True)
    p.add_argument("--method", required=True, type=_cli_tokens(parse_method), help=METHOD_HELP)
    p.add_argument("--checkpoint")
    p.add_argument("--out", help="directory for report files")
    p.add_argument("--max-iters", type=_positive_int, default=icp.DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=float, default=icp.DEFAULT_TOL)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a full protocol from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bench", help="time registration methods across point counts")
    p.add_argument("--out", required=True)
    p.add_argument("--methods", default="icp,dcp-v1,dcp-v2", type=_cli_tokens(parse_methods), help=METHOD_HELP)
    p.add_argument("--sizes", default=(512, 1024, 2048, 4096), type=_int_tuple, help="comma-separated point counts")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--config", help="model settings for untrained dcp timing")
    p.add_argument("--checkpoint")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-iters", type=_positive_int, default=20)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, InvalidInputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
