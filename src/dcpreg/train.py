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


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
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
    b1, b2 = state.betas
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
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / c1
        v_hat = v / c2
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


def lr_schedule(epoch: int, base_lr: float, milestones: tuple[int, ...], factor: float) -> float:
    """Piecewise-constant decay: divide by 1/factor at each milestone epoch."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
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
        return [self.mse_r, self.rmse_r, self.mae_r, self.mse_t, self.rmse_t, self.mae_t]


def pool_metrics(errors: list[geo.TransformErrors]) -> Metrics:
    """Aggregate per-pair errors over all axes/components and samples."""
    if not errors:
        raise ValueError("cannot pool an empty error list")
    rot_sq = np.concatenate([e.rot_sq_deg for e in errors])
    rot_abs = np.concatenate([e.rot_abs_deg for e in errors])
    trans_sq = np.concatenate([e.trans_sq for e in errors])
    trans_abs = np.concatenate([e.trans_abs for e in errors])
    mse_r = float(rot_sq.mean())
    mse_t = float(trans_sq.mean())
    return Metrics(
        mse_r=mse_r,
        rmse_r=float(np.sqrt(mse_r)),
        mae_r=float(rot_abs.mean()),
        mse_t=mse_t,
        rmse_t=float(np.sqrt(mse_t)),
        mae_t=float(trans_abs.mean()),
        n_pairs=len(errors),
    )


def evaluate(model: dcpnet.ModelParams, pairs) -> Metrics:
    """Run inference over pairs and pool the errors against ground truth."""
    errors = []
    for pair in pairs:
        pred = dcpnet.dcp_predict(pair.source, pair.target, model)
        errors.append(geo.rotation_metrics(pred, pair.ground_truth))
    return pool_metrics(errors)


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
    loss, and one Adam update. Batch norm therefore trains on statistics
    over the batch: in the embedding, over every edge (or point) of its B
    source clouds and, separately, of its B target clouds; in the MLP head,
    over its B pairs. With batches of more than one pair, the training pairs
    must share one source size and one target size, and the MLP head needs
    batches of at least two pairs (``InvalidInputError`` before training).

    The log holds one row per epoch: learning rate, mean training loss, the
    mean over batches of the global L2 norm of the gradient Adam receives,
    and validation metrics. A non-finite loss aborts with the most recent
    checkpoint left on disk.

    Without ``val_pairs``, the last ``val_fraction`` of ``train_pairs`` is
    held out for validation: at least one pair when there are two or more,
    and never every pair.
    """
    train_pairs = list(train_pairs)
    if not train_pairs:
        raise ValueError("training set is empty")
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    init_seed = int(seeds[0].generate_state(1)[0])
    shuffle_rng = np.random.default_rng(seeds[1])

    if val_pairs is None:
        n_val = min(max(1, int(round(cfg.val_fraction * len(train_pairs)))), len(train_pairs) - 1)
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
            model.zero_grad()
            with ad.Tape() as tape:
                out = dcpnet.dcp_forward([p.source for p in pairs], [p.target for p in pairs], model, training=True)
                loss = dcpnet.dcp_loss(out.rotation, out.translation, [p.ground_truth for p in pairs])
            if not np.isfinite(loss.data):
                raise NumericalError(f"non-finite training loss at epoch {epoch}; last checkpoint retained")
            ad.backward(tape, loss)
            epoch_loss += loss.item() * len(pairs)
            grads = {name: p.grad for name, p in model.params.items()}
            squares = (np.square(g, dtype=np.float64).sum() for g in grads.values() if g is not None)
            grad_norms.append(math.sqrt(sum(squares)))
            adam_step(model.params, grads, state)

        row = {
            "epoch": epoch,
            "lr": state.lr,
            "train_loss": epoch_loss / len(train_pairs),
            "grad_norm": sum(grad_norms) / len(grad_norms),
        }
        if val_pairs:
            metrics = evaluate(model, val_pairs)
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
    (sorted JSON bytes), ``param/<name>`` and ``bnstate/<name>/{mean,var}``."""
    cfg_json = json.dumps(dataclasses.asdict(model.config), sort_keys=True).encode("utf-8")
    members = {"__version__": np.array(CHECKPOINT_VERSION), "__config__": np.frombuffer(cfg_json, dtype=np.uint8)}
    members.update((f"param/{name}", t.data) for name, t in model.params.items())
    for name, st in model.bn_states.items():
        members[f"bnstate/{name}/mean"] = st.running_mean
        members[f"bnstate/{name}/var"] = st.running_var
    dataio.write_arrays(members, path)


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
    """Read a checkpoint back into model parameters."""
    records = dataio.read_arrays(path, CheckpointError)
    version = records.pop("__version__", np.array(None)).tolist()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if "__config__" not in records:
        raise CheckpointError(f"{path}: missing model configuration record")
    config = _config_from_json(records.pop("__config__").tobytes(), path)
    params: dict[str, ad.Tensor] = {}
    bn_arrays: dict[str, dict[str, np.ndarray]] = {}
    for name, arr in records.items():
        if name.startswith("param/"):
            if arr.dtype != config.np_dtype:
                raise CheckpointError(f"{path}: record {name!r} dtype {arr.dtype} != {config.dtype}")
            params[name[len("param/") :]] = ad.tensor(arr, requires_grad=True)
        elif name.startswith("bnstate/"):
            bn_name, _, kind = name[len("bnstate/") :].rpartition("/")
            bn_arrays.setdefault(bn_name, {})[kind] = arr
        else:
            raise CheckpointError(f"{path}: unexpected record {name!r}")
    bn_states = {}
    for bn_name, parts in bn_arrays.items():
        if set(parts) != {"mean", "var"}:
            raise CheckpointError(f"{path}: incomplete normalization state for {bn_name!r}")
        mean, var = parts["mean"], parts["var"]
        # Inference divides by sqrt(var + eps), and the edge-convolution fold
        # needs that scale positive.
        if mean.dtype != config.np_dtype or var.dtype != config.np_dtype:
            raise CheckpointError(
                f"{path}: normalization state {bn_name!r} dtype {mean.dtype}/{var.dtype} != {config.dtype}"
            )
        if mean.shape != var.shape:
            raise CheckpointError(
                f"{path}: normalization state {bn_name!r} has mean shape {mean.shape} but variance shape {var.shape}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise CheckpointError(f"{path}: normalization state {bn_name!r} is not finite")
        if (var < 0).any():
            raise CheckpointError(f"{path}: normalization state {bn_name!r} has a negative variance")
        bn_states[bn_name] = ad.BatchNormState(running_mean=mean, running_var=var)
    return dcpnet.ModelParams(config, params, bn_states)
