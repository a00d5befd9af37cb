"""Command-line orchestration of the registration experiments.

Subcommands: ``gen-data``, ``register``, ``train``, ``eval``,
``experiment``, ``bench``. All randomness is seeded; reports embed the
config hash and rerun byte-identically. Exit codes: 0 success, 2 usage
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, dataio, dcpnet, geometry as geo, icp, train as train_mod
from .errors import DataError, DcpregError, InvalidInputError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

BASE_METHODS = ("oracle", "icp", "dcp-v1", "dcp-v2", "dcp+icp", "dcp-v1+icp", "dcp-v2+icp")


class UsageError(DcpregError):
    pass


# ---------------------------------------------------------------------------
# Config files: key = value, '#' comments, dotted section keys
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def load_config_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"config file {path} does not exist")
    return parse_config_text(path.read_text(encoding="utf-8"))


def config_hash(values: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={values[k]}" for k in sorted(values))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _get_bool(values, key, default):
    raw = values.get(key)
    if raw is None:
        return default
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise DataError(f"config key {key}: expected a boolean, got {raw!r}")


def _get_int_tuple(values, key, default):
    raw = values.get(key)
    if raw is None:
        return default
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


KIND_DEFAULTS = {
    "full": {"split.mode": "random_instance"},
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
    methods: tuple[str, ...]
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
    workers: int = 1
    icp_max_iters: int = icp.DEFAULT_MAX_ITERS
    icp_tol: float = icp.DEFAULT_TOL
    raw: tuple[tuple[str, str], ...] = ()

    def hash(self) -> str:
        return config_hash(dict(self.raw))


def model_config_from_values(values: dict[str, str]) -> dcpnet.ModelConfig:
    kwargs = {}
    if "model.embedding" in values:
        kwargs["embedding"] = values["model.embedding"]
    widths = _get_int_tuple(values, "model.widths", None)
    if widths is not None:
        kwargs["widths"] = widths
    for key, name, conv in (
        ("model.emb_dims", "emb_dims", int),
        ("model.heads", "heads", int),
        ("model.attn_dims", "attn_dims", int),
        ("model.ffn_dims", "ffn_dims", int),
        ("model.knn_k", "knn_k", int),
        ("model.head", "head", str),
        ("model.dtype", "dtype", str),
    ):
        if key in values:
            kwargs[name] = conv(values[key])
    kwargs["scale_pointer_logits"] = _get_bool(values, "model.scale_pointer_logits", False)
    return dcpnet.ModelConfig(**kwargs)


def train_config_from_values(values: dict[str, str], seed: int) -> train_mod.TrainConfig:
    return train_mod.TrainConfig(
        epochs=int(values.get("train.epochs", 50)),
        batch_size=int(values.get("train.batch_size", 32)),
        base_lr=float(values.get("train.base_lr", 1e-3)),
        lr_milestones=_get_int_tuple(values, "train.milestones", (15, 30, 40)),
        lr_factor=float(values.get("train.lr_factor", 0.1)),
        weight_decay=float(values.get("train.weight_decay", 1e-4)),
        val_fraction=float(values.get("train.val_fraction", 0.1)),
        checkpoint_every=int(values.get("train.checkpoint_every", 0)),
        seed=seed,
    )


def experiment_config_from_values(values: dict[str, str]) -> ExperimentConfig:
    kind = values.get("experiment.kind", "full")
    if kind not in KIND_DEFAULTS:
        raise DataError(f"unknown experiment kind {kind!r}; options: {sorted(KIND_DEFAULTS)}")
    merged = dict(KIND_DEFAULTS[kind])
    merged.update(values)
    if "seed" not in merged:
        raise DataError("config must set a seed")
    if "data.corpus" not in merged:
        raise DataError("config must set data.corpus")
    corpus = merged["data.corpus"]
    if not Path(corpus).is_dir():
        raise DataError(f"corpus directory {corpus} does not exist")
    seed = int(merged["seed"])
    methods = tuple(tok.strip() for tok in merged.get("methods", "icp,dcp-v1").split(",") if tok.strip())
    for method in methods:
        parse_method(method)  # validate early
    pairgen = dataio.PairGenConfig(
        max_rot_deg=float(merged.get("pairgen.max_rot_deg", 45.0)),
        trans_bound=float(merged.get("pairgen.trans_bound", 0.5)),
        n_points=int(merged.get("data.n_points", 128)),
        shuffle_target=_get_bool(merged, "pairgen.shuffle_target", True),
        noise_sigma=float(merged.get("noise.sigma", 0.01)),
        noise_clip=float(merged.get("noise.clip", 0.05)),
        seed=seed,
    )
    return ExperimentConfig(
        kind=kind,
        corpus=corpus,
        seed=seed,
        methods=methods,
        n_points=int(merged.get("data.n_points", 128)),
        split_mode=merged.get("split.mode", "random_instance"),
        split_fraction=float(merged.get("split.fraction", 0.5)),
        pairs_per_cloud_train=int(merged.get("pairs.per_cloud_train", 4)),
        pairs_per_cloud_test=int(merged.get("pairs.per_cloud_test", 2)),
        pairgen=pairgen,
        noise_train=_get_bool(merged, "noise.train", False),
        noise_eval=_get_bool(merged, "noise.eval", False),
        model=model_config_from_values(merged),
        train=train_config_from_values(merged, seed),
        workers=int(merged.get("workers", 1)),
        icp_max_iters=int(merged.get("icp.max_iters", icp.DEFAULT_MAX_ITERS)),
        icp_tol=float(merged.get("icp.tol", icp.DEFAULT_TOL)),
        raw=tuple(sorted(values.items())),
    )


# ---------------------------------------------------------------------------
# Method tokens
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Method:
    name: str
    base: str  # oracle | icp | dcp
    attention: bool = False
    polish: bool = False
    overrides: tuple[tuple[str, str], ...] = ()


def parse_method(token: str) -> Method:
    """Parse a method token like ``dcp-v2``, ``dcp+icp`` or ``dcp-v1:pointnet``."""
    name = token.strip()
    core, _, mods = name.partition(":")
    polish = core.endswith("+icp") and core != "icp"
    if polish:
        core = core[: -len("+icp")] or "dcp"
        if core == "dcp":
            core = "dcp-v2"
    if core == "oracle":
        return Method(name, "oracle")
    if core == "icp":
        return Method(name, "icp")
    if core in ("dcp-v1", "dcp-v2", "dcp"):
        attention = core != "dcp-v1"
        overrides = []
        for mod in filter(None, (m.strip() for m in mods.split(","))):
            if "=" in mod:
                key, val = mod.split("=", 1)
            elif mod in ("pointnet", "dgcnn"):
                key, val = "embedding", mod
            elif mod in ("svd", "mlp"):
                key, val = "head", mod
            else:
                raise DataError(f"unknown method modifier {mod!r} in {token!r}")
            overrides.append((key.strip(), val.strip()))
        return Method(name, "dcp", attention=attention, polish=polish, overrides=tuple(overrides))
    raise DataError(f"unknown method {token!r}; bases: {BASE_METHODS}")


def method_model_config(base: dcpnet.ModelConfig, method: Method) -> dcpnet.ModelConfig:
    cfg = replace(base, attention=method.attention)
    for key, val in method.overrides:
        if key in ("emb_dims", "dims"):
            cfg = replace(cfg, emb_dims=int(val))
        elif key in ("k", "knn_k"):
            cfg = replace(cfg, knn_k=int(val))
        elif key == "embedding":
            cfg = replace(cfg, embedding=val, widths=None)
        elif key == "head":
            cfg = replace(cfg, head=val)
        elif key == "heads":
            cfg = replace(cfg, heads=int(val))
        else:
            raise DataError(f"unknown model override {key!r} for method {method.name!r}")
    return cfg


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

def _icp_task(task):
    src, dst, gt_rot, gt_tra, max_iters, tol = task
    transform, _ = icp.icp_register(src, dst, max_iters=max_iters, tol=tol)
    err = geo.rotation_metrics(transform, geo.RigidTransform(gt_rot, gt_tra))
    return err


def icp_errors(pairs, max_iters, tol, workers: int = 1):
    tasks = [
        (p.source.points, p.target.points, p.ground_truth.rotation, p.ground_truth.translation, max_iters, tol)
        for p in pairs
    ]
    if workers <= 1:
        return [_icp_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_icp_task, tasks))  # input order preserved


def dcp_errors(pairs, model: dcpnet.ModelParams, polish: bool, max_iters, tol):
    errors = []
    for pair in pairs:
        pred = dcpnet.dcp_predict(pair.source, pair.target, model)
        if polish:
            pred = icp.polish_with_icp(pair.source.points, pair.target.points, pred, max_iters, tol)
        errors.append(geo.rotation_metrics(pred, pair.ground_truth))
    return errors


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
        seed=args.seed,
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
    method = parse_method(args.method)
    if method.base == "oracle":
        raise UsageError("the oracle method needs ground truth and is experiment-only")
    if method.base == "dcp" and not args.checkpoint:
        raise UsageError(f"method {args.method} requires --checkpoint")
    source = _load_cli_cloud(args.source, args.n_points, args.seed)
    target = _load_cli_cloud(args.target, args.n_points, args.seed + 1)

    if method.base == "icp":
        transform, _ = icp.icp_register(
            source.points, target.points, max_iters=args.max_iters, tol=args.tol
        )
    else:
        model = train_mod.load_checkpoint(args.checkpoint)
        transform = dcpnet.dcp_predict(source, target, model)
        if method.polish:
            transform = icp.polish_with_icp(
                source.points, target.points, transform, args.max_iters, args.tol
            )

    vals = list(transform.rotation.reshape(-1)) + list(transform.translation)
    print(" ".join(f"{v:.12g}" for v in vals))
    if args.out:
        aligned = geo.apply_transform(transform, source.points)
        dataio.save_xyz(dataio.PointCloud(aligned), args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    values = load_config_file(args.config) if args.config else {}
    if args.seed is not None:
        values["seed"] = str(args.seed)
    if "seed" not in values:
        raise UsageError("set --seed or a seed in the config file")
    seed = int(values["seed"])
    model_cfg = model_config_from_values(values)
    if args.v1:
        model_cfg = replace(model_cfg, attention=False)
    tcfg = train_config_from_values(values, seed)
    if args.epochs is not None:
        tcfg = replace(tcfg, epochs=args.epochs)
    tcfg = replace(tcfg, out_dir=args.out)
    pairs = dataio.read_pair_archive(args.pairs)
    val_pairs = dataio.read_pair_archive(args.val_pairs) if args.val_pairs else None
    model, log = train_mod.train(model_cfg, pairs, val_pairs, tcfg)
    final = Path(args.out) / "checkpoints" / "model_final.dcpk"
    print(f"trained {tcfg.epochs} epochs; final loss {log[-1]['train_loss']:.6f}" if log else "no epochs run")
    print(f"checkpoint: {final}")
    return EXIT_OK


def cmd_eval(args) -> int:
    method = parse_method(args.method)
    pairs = dataio.read_pair_archive(args.pairs)
    if method.base == "oracle":
        errors = [geo.rotation_metrics(p.ground_truth, p.ground_truth) for p in pairs]
    elif method.base == "icp":
        errors = icp_errors(pairs, args.max_iters, args.tol, workers=args.workers)
    else:
        if not args.checkpoint:
            raise UsageError(f"method {args.method} requires --checkpoint")
        model = train_mod.load_checkpoint(args.checkpoint)
        errors = dcp_errors(pairs, model, method.polish, args.max_iters, args.tol)
    metrics = train_mod.pool_metrics(errors)
    print(f"{'metric':>8}  " + "  ".join(f"{c:>12}" for c in train_mod.Metrics.COLUMNS))
    print(f"{args.method:>8}  " + "  ".join(f"{v:12.6f}" for v in metrics.row()))
    if args.out:
        write_report([(args.method, metrics)], Path(args.out), {"version": __version__})
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
    for token in cfg.methods:
        method = parse_method(token)
        if method.base == "oracle":
            errors = [geo.rotation_metrics(p.ground_truth, p.ground_truth) for p in test_pairs]
        elif method.base == "icp":
            errors = icp_errors(test_pairs, cfg.icp_max_iters, cfg.icp_tol, workers=cfg.workers)
        else:
            model_cfg = method_model_config(cfg.model, method)
            model = trained.get(model_cfg)
            if model is None:
                model, log = train_mod.train(model_cfg, train_pairs, None, cfg.train)
                trained[model_cfg] = model
                safe = method.name.replace("+", "_").replace(":", "_").replace("=", "-").replace(",", "_")
                (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
                train_mod.save_checkpoint(model, out_dir / "checkpoints" / f"{safe}.dcpk")
                train_mod.write_training_log(log, out_dir / f"training_log_{safe}.csv")
            errors = dcp_errors(test_pairs, model, method.polish, cfg.icp_max_iters, cfg.icp_tol)
        rows.append((token, train_mod.pool_metrics(errors)))
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
    pairgen = dataio.PairGenConfig(max_rot_deg=30.0, trans_bound=0.3, n_points=n_points, seed=seed)
    return dataio.generate_pair(cloud, pairgen, np.random.default_rng(seed + 1))


def cmd_bench(args) -> int:
    methods = [parse_method(tok.strip()) for tok in args.methods.split(",") if tok.strip()]
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    values = load_config_file(args.config) if args.config else {}
    base_model_cfg = model_config_from_values(values)

    models: dict[bool, dcpnet.ModelParams] = {}
    for method in methods:
        if method.base == "dcp" and method.attention not in models:
            if args.checkpoint:
                loaded = train_mod.load_checkpoint(args.checkpoint)
                if method.attention and not loaded.config.attention:
                    raise DataError(f"checkpoint has no attention weights; cannot run {method.name}")
                models[method.attention] = dcpnet.ModelParams(
                    replace(loaded.config, attention=method.attention), loaded.params, loaded.bn_states
                )
            else:
                cfg = method_model_config(base_model_cfg, method)
                models[method.attention] = dcpnet.ModelParams.initialize(cfg, seed=args.seed)

    lines = [f"# hardware={platform.processor() or platform.machine()} ({platform.system()})"]
    lines.append("method,n_points,trials,mean_seconds")
    print("method        n_points   trials   mean_seconds")
    for method in methods:
        for size in sizes:
            pair = bench_pair(size, args.seed)
            model = models.get(method.attention) if method.base == "dcp" else None
            if model is not None and model.config.knn_k >= size:
                raise DataError(f"model knn_k={model.config.knn_k} too large for {size} points")

            def run_once():
                if method.base == "icp":
                    icp.icp_register(
                        pair.source.points, pair.target.points,
                        max_iters=args.max_iters, tol=icp.DEFAULT_TOL,
                    )
                else:
                    pred = dcpnet.dcp_predict(pair.source, pair.target, model)
                    if method.polish:
                        icp.polish_with_icp(pair.source.points, pair.target.points, pred, args.max_iters)

            run_once()  # warm-up outside the timed region
            start = time.perf_counter()
            for _ in range(args.trials):
                run_once()
            mean = (time.perf_counter() - start) / args.trials
            lines.append(f"{method.name},{size},{args.trials},{mean:.6f}")
            print(f"{method.name:<12}  {size:8d}  {args.trials:6d}   {mean:12.6f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "timing.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcpreg",
        description="Rigid point-cloud registration: classical ICP and learned soft matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a labeled pair archive from a mesh/cloud corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs-per-cloud", type=int, default=1)
    p.add_argument("--n-points", type=int, default=1024)
    p.add_argument("--max-rot-deg", type=float, default=45.0)
    p.add_argument("--trans-bound", type=float, default=0.5)
    p.add_argument("--noise", action="store_true", help="perturb source clouds with clipped Gaussian noise")
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--clip", type=float, default=0.05)
    p.add_argument("--no-shuffle", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("register", help="align one cloud to another, print 12-number transform")
    p.add_argument("--method", required=True, choices=["icp", "dcp-v1", "dcp-v2", "dcp+icp"])
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--out", help="write the aligned source cloud as xyz")
    p.add_argument("--max-iters", type=int, default=icp.DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=float, default=icp.DEFAULT_TOL)
    p.add_argument("--n-points", type=int, default=1024, help="surface samples when input is an OFF mesh")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("train", help="train a model on a pair archive")
    p.add_argument("--pairs", required=True)
    p.add_argument("--val-pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value file with model.* and train.* settings")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--v1", action="store_true", help="disable the attention stage")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a method on a pair archive")
    p.add_argument("--pairs", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--out", help="directory for report files")
    p.add_argument("--max-iters", type=int, default=icp.DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=float, default=icp.DEFAULT_TOL)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a full protocol from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bench", help="time registration methods across point counts")
    p.add_argument("--out", required=True)
    p.add_argument("--methods", default="icp,dcp-v1,dcp-v2")
    p.add_argument("--sizes", default="512,1024,2048,4096")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--config", help="model settings for untrained dcp timing")
    p.add_argument("--checkpoint")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=20)
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
    except (DataError, InvalidInputError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
