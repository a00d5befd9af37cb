"""Optimization loop, metric aggregation, and checkpointing.

Training is fully deterministic given (config, seed): initialization, data
order, and gradient accumulation order are all derived from the seed, so
identical runs produce bitwise-identical checkpoints.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataio, dcpnet
from . import geometry as geo
from .errors import CheckpointError, InvalidInputError, NumericalError, ShapeError

CHECKPOINT_VERSION = 2
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    lr: float = 1e-3
    weight_decay: float = 1e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, ad.Tensor], grads: dict[str, np.ndarray], state: OptimizerState) -> OptimizerState:
    """One Adam update over all parameters, in fixed dictionary order.

    Decoupled weight decay shrinks each parameter before its moment update;
    bias-corrected moments drive the step. NaN gradients abort loudly.
    """
    state.step += 1
    b1, b2 = ADAM_BETAS
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        if state.weight_decay:
            p.data = p.data - (state.lr * state.weight_decay) * p.data
        # Both moments start at 0.
        m = state.m[name] = b1 * state.m.get(name, 0.0) + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v.get(name, 0.0) + (1.0 - b2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def lr_schedule(epoch: int, base_lr: float, milestones: tuple[int, ...], factor: float) -> float:
    """Piecewise-constant decay: divide by 1/factor at each milestone epoch."""
    drops = sum(1 for m in milestones if epoch >= m)
    return base_lr * factor**drops


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    """Pooled per-axis rotation (degrees) and per-component translation errors."""

    mse_r: float
    rmse_r: float
    mae_r: float
    mse_t: float
    rmse_t: float
    mae_t: float
    n_pairs: int = 0

    COLUMNS = ("mse_r", "rmse_r", "mae_r", "mse_t", "rmse_t", "mae_t")

    def row(self) -> list[float]:
        return [getattr(self, c) for c in self.COLUMNS]


def pool_metrics(errors: list[geo.TransformErrors]) -> Metrics:
    """Pool per-pair errors over all axes or components and pairs: the MSE,
    RMSE and MAE of rotation, then of translation, as ``Metrics.COLUMNS``."""
    if not errors:
        raise ValueError("cannot pool an empty error list")
    pooled = []
    for sq, ab in (("rot_sq_deg", "rot_abs_deg"), ("trans_sq", "trans_abs")):
        mse = float(np.concatenate([getattr(e, sq) for e in errors]).mean())
        pooled += [mse, float(np.sqrt(mse)), float(np.concatenate([getattr(e, ab) for e in errors]).mean())]
    return Metrics(*pooled, n_pairs=len(errors))


def evaluate(pairs, predict) -> Metrics:
    """Pool (:func:`pool_metrics`) the errors of ``predict(pair)``, a
    ``RigidTransform``, against the ground truth of each labeled pair. This
    is the one scoring loop: validation in :func:`train` predicts with
    :func:`dcpnet.dcp_predict`, and ``harness`` with each method token."""
    return pool_metrics([geo.rotation_metrics(predict(pair), pair.ground_truth) for pair in pairs])


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    base_lr: float = 1e-3
    lr_milestones: tuple[int, ...] = (15, 30, 40)
    lr_factor: float = 0.1
    weight_decay: float = 1e-4
    seed: int = 0
    val_fraction: float = 0.1
    checkpoint_every: int = 0  # 0 disables periodic checkpoints
    out_dir: str | None = None

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("checkpoint_every", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise InvalidInputError(f"train.{name} must be at least {low}, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise InvalidInputError(f"train.val_fraction must lie in [0, 1), got {self.val_fraction}")
        for name in ("base_lr", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidInputError(f"train.{name} must be a finite number of at least 0, got {getattr(self, name)}")
        if not 0.0 < self.lr_factor < math.inf:
            raise InvalidInputError(f"train.lr_factor must be a finite number above 0, got {self.lr_factor}")
        if min(self.lr_milestones, default=1) < 1:
            raise InvalidInputError(f"train.lr_milestones must each be at least 1, got {self.lr_milestones}")


def _batches(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """``order`` cut into batches of ``batch_size``; a trailing batch of one
    pair joins the batch before it, so batch norm never trains on a lone
    pair when batches hold more than one."""
    starts = list(range(0, len(order), batch_size))
    if batch_size > 1 and len(starts) > 1 and len(order) - starts[-1] == 1:
        starts.pop()
    return [order[s:e] for s, e in zip(starts, starts[1:] + [len(order)])]


LOG_COLUMNS = ("epoch", "lr", "train_loss", "grad_norm") + Metrics.COLUMNS


def _format_row(values) -> str:
    return ",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in values)


def write_training_log(rows: list[dict], path) -> None:
    lines = [",".join(LOG_COLUMNS)]
    for row in rows:
        lines.append(_format_row([row[c] for c in LOG_COLUMNS]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def train(
    model_cfg: dcpnet.ModelConfig,
    train_pairs,
    val_pairs=None,
    cfg: TrainConfig = TrainConfig(),
) -> tuple[dcpnet.ModelParams, list[dict]]:
    """Train a registration model; returns final parameters and the log.

    Each epoch shuffles the training pairs into batches of
    ``cfg.batch_size`` (a trailing lone pair joins the batch before it).
    A step is one forward of the whole batch on one tape, as
    :func:`dcpnet.dcp_forward` on B pairs, one backward of the batch-mean
    loss, and one Adam update on the gradients that backward returns (a
    parameter it does not reach gets a zero gradient). The tape makes the
    forward a training one, so batch norm trains on statistics over the
    batch: in the embedding, over every edge (or point) of its B source
    clouds and, separately, of its B target clouds; in the MLP head, over
    its B pairs. With batches of more than one pair, the training pairs
    must share one source size and one target size, and the MLP head needs
    batches of at least two pairs (``InvalidInputError`` before training).

    The log holds one row per epoch: learning rate, mean training loss, the
    mean over batches of the global L2 norm of the gradient Adam receives,
    and validation metrics. A non-finite loss aborts with the most recent
    checkpoint left on disk.

    Without ``val_pairs``, the last ``val_fraction`` of ``train_pairs`` is
    held out for validation: none when ``val_fraction`` is 0 (the metrics
    are then NaN, as with ``val_pairs=[]``), otherwise at least one pair
    when there are two or more, and never every pair.
    """
    train_pairs = list(train_pairs)
    if not train_pairs:
        raise ValueError("training set is empty")
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    init_seed = int(seeds[0].generate_state(1)[0])
    shuffle_rng = np.random.default_rng(seeds[1])

    if val_pairs is None:
        n_val = int(round(cfg.val_fraction * len(train_pairs)))
        if cfg.val_fraction > 0:
            n_val = min(max(1, n_val), len(train_pairs) - 1)
        val_pairs = train_pairs[len(train_pairs) - n_val :]
        train_pairs = train_pairs[: len(train_pairs) - n_val]

    sizes = sorted({(len(p.source), len(p.target)) for p in train_pairs})
    if len(sizes) > 1 and cfg.batch_size > 1:
        raise InvalidInputError(f"batches stack their pairs, which need one (source, target) size; found {sizes}")
    if model_cfg.head == "mlp" and min(cfg.batch_size, len(train_pairs)) < 2:
        raise InvalidInputError(
            f"the MLP head's batch norm trains on batches of at least 2 pairs; got batch_size {cfg.batch_size}"
            f" and {len(train_pairs)} training pair(s)"
        )
    model = dcpnet.ModelParams.initialize(model_cfg, seed=init_seed)
    state = OptimizerState(lr=cfg.base_lr, weight_decay=cfg.weight_decay)
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir:
        (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)

    log: list[dict] = []
    for epoch in range(cfg.epochs):
        state.lr = lr_schedule(epoch, cfg.base_lr, cfg.lr_milestones, cfg.lr_factor)
        order = shuffle_rng.permutation(len(train_pairs))
        epoch_loss = 0.0
        grad_norms = []
        for batch in _batches(order, cfg.batch_size):
            pairs = [train_pairs[idx] for idx in batch]
            with ad.Tape() as tape:
                out = dcpnet.dcp_forward([p.source for p in pairs], [p.target for p in pairs], model)
                loss = dcpnet.dcp_loss(out.rotation, out.translation, [p.ground_truth for p in pairs])
            if not np.isfinite(loss.data):
                raise NumericalError(f"non-finite training loss at epoch {epoch}; last checkpoint retained")
            reached = ad.backward(tape, loss)
            epoch_loss += loss.item() * len(pairs)
            grads = {name: reached[p] for name, p in model.params.items() if p in reached}
            squares = (np.square(g, dtype=np.float64).sum() for g in grads.values())
            grad_norms.append(math.sqrt(sum(squares)))
            adam_step(model.params, grads, state)

        row = {
            "epoch": epoch,
            "lr": state.lr,
            "train_loss": epoch_loss / len(train_pairs),
            "grad_norm": sum(grad_norms) / len(grad_norms),
        }
        if val_pairs:
            metrics = evaluate(val_pairs, lambda pair: dcpnet.dcp_predict(pair.source, pair.target, model))
            row.update({c: getattr(metrics, c) for c in Metrics.COLUMNS})
        else:
            row.update({c: float("nan") for c in Metrics.COLUMNS})
        log.append(row)

        if out_dir:
            if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(model, out_dir / "checkpoints" / f"epoch_{epoch:04d}.dcpk")
            save_checkpoint(model, out_dir / "checkpoints" / "model_final.dcpk")
            write_training_log(log, out_dir / "training_log.csv")

    return model, log


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: dcpnet.ModelParams, path) -> None:
    """Write a :func:`dataio.write_arrays` file of ``__version__``, ``__config__``
    (sorted JSON bytes) and the model's arrays (:meth:`dcpnet.ModelParams.to_arrays`)."""
    cfg_json = json.dumps(dataclasses.asdict(model.config), sort_keys=True).encode("utf-8")
    members = {"__version__": np.array(CHECKPOINT_VERSION), "__config__": np.frombuffer(cfg_json, dtype=np.uint8)}
    dataio.write_arrays({**members, **model.to_arrays()}, path)


def _config_from_json(blob: bytes, path) -> dcpnet.ModelConfig:
    try:
        raw = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: undecodable model configuration ({exc})") from None
    if not isinstance(raw, dict):
        raise CheckpointError(f"{path}: model configuration is not a JSON object")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(dcpnet.ModelConfig)})
    if unknown:
        raise CheckpointError(f"{path}: unknown model configuration key(s) {', '.join(unknown)}")
    return dcpnet.ModelConfig(**{key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()})


def load_checkpoint(path) -> dcpnet.ModelParams:
    """Read a checkpoint back into model parameters.

    Raises ``CheckpointError`` for a file that is not a readable
    :func:`dataio.write_arrays` file; whose ``__version__`` is not
    ``CHECKPOINT_VERSION``; whose ``__config__`` is missing, is not a JSON
    object or holds a key ``ModelConfig`` lacks (a value it rejects raises
    its ``InvalidInputError``); that lacks a member of that configuration's
    table (:func:`dcpnet.model_shapes`), holds a member the table does not
    list, or holds one at another shape, naming each; that holds a member
    not of the configuration's dtype; or whose batch-norm means and
    variances are not finite or hold a negative variance (inference divides
    by ``sqrt(var + eps)``, and the edge-convolution fold needs it positive).
    """
    records = dataio.read_arrays(path, CheckpointError)
    version = records.pop("__version__", np.array(None)).tolist()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if "__config__" not in records:
        raise CheckpointError(f"{path}: missing model configuration record")
    config = _config_from_json(records.pop("__config__").tobytes(), path)
    table = dcpnet.model_shapes(config)
    faults = [f"missing record {name!r}" for name in table if name not in records]
    for name, arr in records.items():
        if name not in table:
            faults.append(f"unexpected record {name!r}")
        elif arr.shape != table[name].shape:
            faults.append(f"record {name!r} has shape {arr.shape}, not {table[name].shape}")
    if faults:
        raise CheckpointError(f"{path}: does not match its model configuration: {'; '.join(faults)}")
    for name, arr in records.items():
        if arr.dtype != config.np_dtype:
            raise CheckpointError(f"{path}: record {name!r} dtype {arr.dtype} != {config.dtype}")
        if name.startswith("bnstate/") and not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: normalization state {name!r} is not finite")
        if name.endswith("/var") and (arr < 0).any():
            raise CheckpointError(f"{path}: normalization state {name!r} has a negative variance")
    return dcpnet.ModelParams.from_arrays(config, {name: records[name] for name in table})
