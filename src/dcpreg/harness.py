"""Command-line orchestration of the registration experiments.

Subcommands: ``gen-data``, ``register``, ``train``, ``eval``,
``experiment``, ``bench``. All randomness is seeded; reports rerun
byte-identically and carry their provenance (``experiment`` the config
hash, ``eval`` the hashes of its pair archive and checkpoint and its ICP
settings); ``eval`` and ``experiment`` print the ``report.txt`` table
(:func:`report_table`). Exit codes: 0 success, 2 usage error, 3 data
error, 4 numerical failure. A bad flag value exits 2 with a message that
names the flag and states the rule; a bad config key value exits 3 with
one that names the key and states the rule. Each bound lives in one
place: ``TrainConfig`` and ``PairGenConfig`` check the settings they
hold, whose flags and keys only parse the text (:func:`_field`), and
every other setting has one converter here (:func:`_rule`), so
``split.mode`` and ``split.fraction`` are checked as the config is read,
before the corpus is. A checkpoint that contradicts its own configuration
(a tensor missing, unexpected or at another shape) is a data error, 3; a
sound checkpoint, or ``bench``'s model settings, that a method token
cannot use is a usage error, 2, as is ``--checkpoint`` given where no
method token loads a model, or ``gen-data``'s ``--sigma`` or ``--clip``
without ``--noise``.

Config files (``train``, ``experiment`` and ``bench --config``) hold
``key = value`` lines and ``#`` comments, read by :func:`dataio.text_lines`
as OFF and XYZ files are. The key tables ``MODEL_KEYS``, ``TRAIN_KEYS``,
``PAIRGEN_KEYS`` and ``EXPERIMENT_KEYS``, with ``OTHER_KEYS``, are the one
list of config keys. Each table entry names the dataclass field its key
sets, and a key left unset keeps the default that dataclass declares.
:func:`load_config_file`, which reads every command's config file, alone
rejects an unknown key (exit 3). Values a dataclass rejects together
(``model.emb_dims`` that ``model.heads`` does not divide) also exit 3, in
a message that names those keys. The model settings are checked as each
command runs them: per method token, so a DCP-v1 model, which has no
heads, takes any ``model.emb_dims``. ``bench --checkpoint`` names the
``model.*`` keys as ignored, since the checkpoint holds its own.
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
    raw_lines = text.splitlines()
    for lineno, line in dataio.text_lines(raw_lines):
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected 'key = value', got {raw_lines[lineno - 1].strip()!r}")
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


def _digest(data: bytes) -> str:
    """The first 16 hex digits of the sha256 of ``data``: the hashes reports record."""
    return hashlib.sha256(data).hexdigest()[:16]


def config_hash(values: dict[str, str]) -> str:
    return _digest("\n".join(f"{k}={values[k]}" for k in sorted(values)).encode("utf-8"))


def _bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _rule(parse, ok, rule: str):
    """The one converter of a setting that no config dataclass holds:
    ``parse(raw)``, or ``ArgumentTypeError`` stating ``rule`` when ``raw``
    does not parse or its value fails ``ok``."""
    def convert(raw: str):
        try:
            value = parse(raw)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {raw!r}")
    return convert


_positive_int = _rule(int, lambda n: n >= 1, "must be an integer of at least 1")
_seed = _rule(int, lambda n: n >= 0, "a seed must be an integer of at least 0")
_nonnegative = _rule(float, lambda x: 0.0 <= x < np.inf, "must be a finite number of at least 0")


def _field(cls, name: str, parse):
    """The converter of setting ``name`` of the config dataclass ``cls``:
    ``parse`` reads the text, and ``cls`` checks the value, as its default
    with that one field replaced. The bound lives in ``cls`` alone; a value
    it rejects raises ``ArgumentTypeError`` with its message."""
    def convert(raw: str):
        try:
            return getattr(replace(cls(), **{name: parse(raw)}), name)
        except (ValueError, InvalidInputError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_n_points = _field(dataio.PairGenConfig, "n_points", int)
_sizes = _rule(lambda raw: tuple(map(_n_points, raw.replace(",", " ").split())), bool, "need one or more point counts")


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
    methods: tuple[Method, ...]
    split_mode: str = "random_instance"
    split_fraction: float = 0.5
    pairs_per_cloud_train: int = 4
    pairs_per_cloud_test: int = 2
    pairgen: dataio.PairGenConfig = dataio.PairGenConfig(n_points=128)
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
    key: (field, _field(train_mod.TrainConfig, field, parse))
    for key, field, parse in (
        ("seed", "seed", int), ("train.epochs", "epochs", int), ("train.batch_size", "batch_size", int),
        ("train.base_lr", "base_lr", float), ("train.milestones", "lr_milestones", _int_tuple),
        ("train.lr_factor", "lr_factor", float), ("train.weight_decay", "weight_decay", float),
        ("train.val_fraction", "val_fraction", float), ("train.checkpoint_every", "checkpoint_every", int),
    )
}
PAIRGEN_KEYS = {
    key: (field, _field(dataio.PairGenConfig, field, parse))
    for key, field, parse in (
        ("data.n_points", "n_points", int), ("pairgen.max_rot_deg", "max_rot_deg", float),
        ("pairgen.trans_bound", "trans_bound", float),
        ("pairgen.shuffle_target", "shuffle_target", _bool), ("noise.sigma", "noise_sigma", float),
        ("noise.clip", "noise_clip", float),
    )
}
EXPERIMENT_KEYS = {
    "split.mode": ("split_mode", _rule(str, lambda m: m in dataio.SPLIT_MODES, f"must be one of {dataio.SPLIT_MODES}")),
    "split.fraction": ("split_fraction", _rule(float, lambda x: 0.0 <= x <= 1.0, "must be a number in [0, 1]")),
    "pairs.per_cloud_train": ("pairs_per_cloud_train", _positive_int),
    "pairs.per_cloud_test": ("pairs_per_cloud_test", _positive_int),
    "noise.train": ("noise_train", _bool),
    "noise.eval": ("noise_eval", _bool),
    "icp.max_iters": ("icp_max_iters", _positive_int),
    "icp.tol": ("icp_tol", _nonnegative),
}
# Keys that experiment_config_from_values reads itself.
OTHER_KEYS = ("methods", "experiment.kind", "data.corpus")


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


def _from_values(cls, table, values: dict[str, str], **fields):
    """``cls(**fields)`` plus the fields that the ``table`` keys set in
    ``values``; every other field keeps the default ``cls`` declares. A
    value that its key's converter rejects raises ``DataError`` naming the
    key and stating the rule; so do values that ``cls`` rejects together
    (``model.emb_dims`` that ``heads`` does not divide), naming each key
    whose field the rule names."""
    for key, (field, conv) in table.items():
        if key in values:
            try:
                fields[field] = conv(values[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise DataError(f"config key {key}: bad value {values[key]!r} ({exc})") from None
    try:
        return cls(**fields)
    except InvalidInputError as exc:
        raise DataError(f"config key(s) {_keys_named(table, values, exc)}: {exc}") from None


def _keys_named(table, values: dict[str, str], exc: Exception, skip=()) -> str:
    """The keys of ``table`` set in ``values`` whose field ``exc`` names,
    but for the fields in ``skip``."""
    return ", ".join(key for key, (field, _) in table.items()
                     if key in values and field not in skip and re.search(rf"\b{field}\b", str(exc)))


def experiment_config_from_values(values: dict[str, str]) -> ExperimentConfig:
    kind = values.get("experiment.kind", "full")
    if kind not in KIND_DEFAULTS:
        raise DataError(f"unknown experiment kind {kind!r}; options: {sorted(KIND_DEFAULTS)}")
    merged = {**KIND_DEFAULTS[kind], **values}
    if "seed" not in merged:
        raise DataError("config must set a seed")
    if "data.corpus" not in merged:
        raise DataError("config must set data.corpus")
    train = _from_values(train_mod.TrainConfig, TRAIN_KEYS, merged)
    methods = parse_methods(merged.get("methods", "icp,dcp-v1"))
    # Each dcp token sets attention itself; the base is checked as DCP-v1.
    model = _from_values(dcpnet.ModelConfig, MODEL_KEYS, merged, attention=False)
    for method in methods:
        if method.base == "dcp":  # fail before any method runs
            try:
                method_model_config(model, method)
            except InvalidInputError as exc:
                keys = _keys_named(MODEL_KEYS, merged, exc, skip=dict(method.overrides))
                source = f"config key(s) {keys}" if keys else "the model settings"
                raise DataError(f"{source} cannot run {method.name}: {exc}") from None
    pairgen = _from_values(dataio.PairGenConfig, PAIRGEN_KEYS, merged, n_points=ExperimentConfig.pairgen.n_points)
    return _from_values(
        ExperimentConfig, EXPERIMENT_KEYS, merged, kind=kind, corpus=merged["data.corpus"], methods=methods,
        pairgen=pairgen, model=model, train=train, raw=tuple(sorted(values.items())),
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
    token, so ``icp, dcp-v2:dims=16,heads=2`` is two tokens. A list with
    no token is a ``DataError``.
    """
    tokens = (tok.strip(" \t,") for tok in re.split(r",(?=\s*(?:oracle|icp|dcp))", text))
    methods = tuple(parse_method(tok) for tok in tokens if tok)
    if not methods:
        raise DataError(f"the methods list {text!r} names no method")
    return methods


def method_model_config(base: dcpnet.ModelConfig, method: Method) -> dcpnet.ModelConfig:
    return replace(base, attention=method.attention, **dict(method.overrides))


def _runnable_config(base: dcpnet.ModelConfig, method: Method, source: str) -> dcpnet.ModelConfig:
    """:func:`method_model_config`, or ``UsageError`` when ``source``, the
    model settings ``base`` came from, cannot hold the token's overrides."""
    try:
        return method_model_config(base, method)
    except InvalidInputError as exc:
        raise UsageError(f"{source} cannot run {method.name}: {exc}") from None


def load_method_model(method: Method, checkpoint) -> dcpnet.ModelParams:
    """The model ``method`` asks for, with its weights from ``checkpoint``.

    That model's tensor table (:func:`dcpnet.model_shapes`) must lie within
    the table of the checkpoint's own configuration, each tensor at the
    same shape; otherwise the checkpoint cannot honour the token and this
    raises ``UsageError``. A checkpoint that contradicts its own
    configuration is a ``CheckpointError`` from :func:`train.load_checkpoint`.
    """
    if not checkpoint:
        raise UsageError(f"method {method.name} requires --checkpoint")
    loaded = train_mod.load_checkpoint(checkpoint)
    cfg = _runnable_config(loaded.config, method, f"checkpoint {checkpoint}")
    have = {name: spec.shape for name, spec in dcpnet.model_shapes(loaded.config).items()}
    bad = sorted(name for name, spec in dcpnet.model_shapes(cfg).items() if have.get(name) != spec.shape)
    if bad:
        detail = f"{len(bad)} tensor(s) missing or mis-shaped, such as {', '.join(bad[:3])}"
        raise UsageError(f"checkpoint {checkpoint} cannot run {method.name}: {detail}")
    return replace(loaded, config=cfg)


def method_models(methods, checkpoint, initial=None):
    """The model of each token of ``methods``, built in order as the caller
    iterates: ``None`` for ``oracle`` and ``icp``, which load none; for a
    ``dcp`` token, :func:`load_method_model` of ``checkpoint``, or
    ``initial(method)`` when no checkpoint is given. A ``checkpoint`` that
    no token loads is a ``UsageError`` at once."""
    if checkpoint and all(method.base != "dcp" for method in methods):
        names = ",".join(method.name for method in methods)
        raise UsageError(f"--checkpoint is for dcp methods; {names} loads no model")
    return (None if method.base != "dcp"
            else initial(method) if initial and not checkpoint
            else load_method_model(method, checkpoint) for method in methods)


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
    seeds = np.random.SeedSequence(seed_key).generate_state(len(clouds) * per_cloud, dtype=np.uint64).tolist()
    pairs = []
    for cloud, seed in zip((cloud for cloud in clouds for _ in range(per_cloud)), seeds):
        children = np.random.SeedSequence(seed).spawn(2)
        pair = dataio.generate_pair(cloud, pairgen, np.random.default_rng(children[0]))
        if noise and pairgen.noise_sigma > 0:
            pair = dataio.noisy_pair(
                pair, pairgen.noise_sigma, pairgen.noise_clip, np.random.default_rng(children[1])
            )
        pairs.append(pair)
    return pairs, seeds


# ---------------------------------------------------------------------------
# Per-method evaluation
# ---------------------------------------------------------------------------

def run_method(
    method: Method, model, source, target, max_iters, tol
) -> tuple[geo.RigidTransform, list[icp.IcpState]]:
    """Align ``source`` to ``target``: ``icp`` is ICP from the identity, a
    ``dcp`` token takes :func:`dcpnet.dcp_predict`'s estimate, and ``+icp``
    is ICP from it. Returns the transform and ICP's history, empty without ICP."""
    init = dcpnet.dcp_predict(source, target, model) if method.base == "dcp" else None
    if method.base == "icp" or method.polish:
        return icp.icp_register(source.points, target.points, init=init, max_iters=max_iters, tol=tol)
    return init, []


def method_metrics(method: Method, model, pairs, max_iters, tol) -> train_mod.Metrics:
    """The pooled errors of ``method`` on the labeled ``pairs``
    (:func:`train.evaluate`): ``oracle`` predicts each pair's ground truth,
    and every other token runs :func:`run_method`."""
    if method.base == "oracle":
        return train_mod.evaluate(pairs, lambda pair: pair.ground_truth)
    return train_mod.evaluate(
        pairs, lambda pair: run_method(method, model, pair.source, pair.target, max_iters, tol)[0]
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("method", *train_mod.Metrics.COLUMNS)
REPORT_HEADERS = ("Method", "MSE(R)", "RMSE(R)", "MAE(R)", "MSE(t)", "RMSE(t)", "MAE(t)")


def report_table(rows: list[tuple[str, train_mod.Metrics]], provenance: dict[str, str]) -> str:
    """The ``report.txt`` text of ``rows``, which ``eval`` and ``experiment``
    also print: one ``# key=value`` line per provenance entry, then the table."""
    width = max([8, *(len(name) for name, _ in rows)])
    lines = [f"# {k}={v}" for k, v in provenance.items()]
    lines.append(f"{REPORT_HEADERS[0]:<{width}}  " + "  ".join(f"{h:>12}" for h in REPORT_HEADERS[1:]))
    lines += [f"{name:<{width}}  " + "  ".join(f"{v:12.6f}" for v in metrics.row()) for name, metrics in rows]
    return "\n".join(lines) + "\n"


def write_report(rows: list[tuple[str, train_mod.Metrics]], out_dir: Path, provenance: dict[str, str]):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"# {k}={v}" for k, v in provenance.items()]
    lines.append(",".join(REPORT_COLUMNS))
    lines += [name + "," + ",".join(f"{v:.9f}" for v in metrics.row()) for name, metrics in rows]
    (out_dir / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "report.txt").write_text(report_table(rows, provenance), encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    noise = {name: value for name, value in (("sigma", args.sigma), ("clip", args.clip)) if value is not None}
    if noise and not args.noise:
        raise UsageError(f"{' and '.join('--' + name for name in noise)} only take effect with --noise")
    pairgen = dataio.PairGenConfig(
        max_rot_deg=args.max_rot_deg,
        trans_bound=args.trans_bound,
        n_points=args.n_points,
        shuffle_target=not args.no_shuffle,
        **{f"noise_{name}": value for name, value in noise.items()},
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
    return dataio.load_cloud_file(p, n_points, seed)


def cmd_register(args) -> int:
    method = args.method
    model, = method_models((method,), args.checkpoint)
    if method.base == "oracle":
        raise UsageError("the oracle method needs ground truth and is experiment-only")
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
    _note_ignored_keys("train", values, {*MODEL_KEYS, *TRAIN_KEYS})
    if args.seed is not None:
        values["seed"] = str(args.seed)
    if args.epochs is not None:
        values["train.epochs"] = str(args.epochs)
    if "seed" not in values:
        raise UsageError("set --seed or a seed in the config file")
    model_cfg = _from_values(dcpnet.ModelConfig, MODEL_KEYS, values, attention=not args.v1)
    tcfg = _from_values(train_mod.TrainConfig, TRAIN_KEYS, values, out_dir=args.out)
    pairs = dataio.read_pair_archive(args.pairs)
    val_pairs = dataio.read_pair_archive(args.val_pairs) if args.val_pairs else None
    model, log = train_mod.train(model_cfg, pairs, val_pairs, tcfg)
    final = Path(args.out) / "checkpoints" / "model_final.dcpk"
    print(f"trained {tcfg.epochs} epochs; final loss {log[-1]['train_loss']:.6f}")
    print(f"checkpoint: {final}")
    return EXIT_OK


def cmd_eval(args) -> int:
    method = args.method
    model, = method_models((method,), args.checkpoint)
    pairs = dataio.read_pair_archive(args.pairs)
    rows = [(method.name, method_metrics(method, model, pairs, args.max_iters, args.tol))]
    provenance = {"version": __version__, "pairs_sha256": _digest(Path(args.pairs).read_bytes())}
    if args.checkpoint:
        provenance["checkpoint_sha256"] = _digest(Path(args.checkpoint).read_bytes())
    provenance.update(max_iters=str(args.max_iters), tol=str(args.tol))
    print(report_table(rows, provenance), end="")
    if args.out:
        write_report(rows, Path(args.out), provenance)
    return EXIT_OK


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> list[tuple[str, train_mod.Metrics]]:
    seed = cfg.train.seed
    clouds = load_clouds(cfg.corpus, cfg.pairgen.n_points, seed)
    train_clouds, test_clouds = dataio.dataset_split(clouds, cfg.split_mode, cfg.split_fraction, seed=seed)
    if not train_clouds or not test_clouds:
        raise DataError("split produced an empty side; adjust split.fraction or corpus size")
    train_pairs, _ = build_pairs(train_clouds, cfg.pairs_per_cloud_train, cfg.pairgen, [seed, 0x7A], cfg.noise_train)
    test_pairs, _ = build_pairs(test_clouds, cfg.pairs_per_cloud_test, cfg.pairgen, [seed, 0x7E], cfg.noise_eval)

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
        rows.append((method.name, method_metrics(method, model, test_pairs, cfg.icp_max_iters, cfg.icp_tol)))
    return rows


def cmd_experiment(args) -> int:
    values = load_config_file(args.config)
    cfg = experiment_config_from_values(values)
    out_dir = Path(args.out)
    rows = run_experiment(cfg, out_dir)
    provenance = {"config_hash": cfg.hash(), "version": __version__, "kind": cfg.kind, "seed": str(cfg.train.seed)}
    write_report(rows, out_dir, provenance)
    print(report_table(rows, provenance), end="")
    return EXIT_OK


def bench_pair(n_points: int, seed: int):
    mesh = dataio.make_shape_mesh("ellipsoid", np.random.default_rng(seed))
    cloud = dataio.normalize_unit_sphere(dataio.sample_surface(mesh, n_points, seed))
    pairgen = dataio.PairGenConfig(max_rot_deg=30.0, trans_bound=0.3, n_points=n_points)
    return dataio.generate_pair(cloud, pairgen, np.random.default_rng(seed + 1))


def cmd_bench(args) -> int:
    tokens = method_models(args.methods, args.checkpoint, lambda method: dcpnet.ModelParams.initialize(
        _runnable_config(base_model_cfg, method, "the model settings"), seed=args.seed))
    values = load_config_file(args.config) if args.config else {}
    # A checkpoint holds its own model settings; each token sets attention.
    model_keys = {} if args.checkpoint else MODEL_KEYS
    _note_ignored_keys("bench", values, set(model_keys))
    base_model_cfg = _from_values(dcpnet.ModelConfig, model_keys, values, attention=False)
    models = []
    for method, model in zip(args.methods, tokens):
        if method.base == "oracle":
            raise UsageError("the oracle method needs ground truth and cannot be timed")
        models.append(model)
    lines = [f"# hardware={platform.processor() or platform.machine()} ({platform.system()})"]
    lines.append("method,n_points,trials,p50_seconds,p90_seconds,min_seconds")
    print("method        n_points   trials    p50_seconds    p90_seconds    min_seconds")
    for method, model in zip(args.methods, models):
        for size in args.sizes:
            pair = bench_pair(size, args.seed)

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
    # A flag that sets a config dataclass's setting shares its key's converter.
    key_type = {key: conv for table in (TRAIN_KEYS, PAIRGEN_KEYS, EXPERIMENT_KEYS) for key, (_, conv) in table.items()}

    p = sub.add_parser("gen-data", help="generate a labeled pair archive from a mesh/cloud corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="pair archive file to write (a zip of .npy arrays)")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--pairs-per-cloud", type=_positive_int, default=1)
    p.add_argument("--n-points", type=key_type["data.n_points"], default=dataio.PairGenConfig.n_points)
    p.add_argument("--max-rot-deg", type=key_type["pairgen.max_rot_deg"], default=dataio.PairGenConfig.max_rot_deg)
    p.add_argument("--trans-bound", type=key_type["pairgen.trans_bound"], default=dataio.PairGenConfig.trans_bound)
    p.add_argument("--noise", action="store_true", help="perturb source clouds with clipped Gaussian noise")
    p.add_argument("--sigma", type=key_type["noise.sigma"], help="noise scale; needs --noise")
    p.add_argument("--clip", type=key_type["noise.clip"], help="noise bound; needs --noise")
    p.add_argument("--no-shuffle", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("register", help="align one cloud to another, print 12-number transform")
    p.add_argument("--method", required=True, type=_cli_tokens(parse_method), help=METHOD_HELP)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--out", help="write the aligned source cloud as xyz")
    p.add_argument("--max-iters", type=_positive_int, default=icp.DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=_nonnegative, default=icp.DEFAULT_TOL)
    p.add_argument("--n-points", type=key_type["data.n_points"], default=1024, help="surface samples when input is an OFF mesh")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("train", help="train a model on a pair archive")
    p.add_argument("--pairs", required=True)
    p.add_argument("--val-pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value file with model.* and train.* settings")
    p.add_argument("--seed", type=key_type["seed"])
    p.add_argument("--epochs", type=key_type["train.epochs"])
    p.add_argument("--v1", action="store_true", help="disable the attention stage")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a method on a pair archive")
    p.add_argument("--pairs", required=True)
    p.add_argument("--method", required=True, type=_cli_tokens(parse_method), help=METHOD_HELP)
    p.add_argument("--checkpoint")
    p.add_argument("--out", help="directory for report files")
    p.add_argument("--max-iters", type=_positive_int, default=icp.DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=_nonnegative, default=icp.DEFAULT_TOL)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a full protocol from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bench", help="time registration methods across point counts")
    p.add_argument("--out", required=True)
    p.add_argument("--methods", default="icp,dcp-v1,dcp-v2", type=_cli_tokens(parse_methods), help=METHOD_HELP)
    p.add_argument("--sizes", default=(512, 1024, 2048, 4096), type=_sizes, help="comma-separated point counts")
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
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
