"""The benchmark's workloads: seeded inputs, the closed timing loop and the
checks on every output. See README.md for why each workload exists."""

from __future__ import annotations

import contextlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from dcpreg import dataio, dcpnet, icp, train
from dcpreg.errors import DcpregError, NumericalError

# Pair settings of the desk protocol (scripts/run_desk_protocols.sh).
MAX_ROT_DEG = 45.0
TRANS_BOUND = 0.5
# Seed of the model weights, the same on every run, as a deployed model is.
# The untrained weights set how far DCP lands from the truth, and so how
# many ICP iterations the polish takes: with weights drawn from the run
# seed, that count moved by a third between seeds.
WEIGHTS_SEED = 0
# Batch size of the desk protocol's training runs.
TRAIN_BATCH_SIZE = 8
# Tolerance of the output check on R^T R = I and det R = +1.
ROTATION_TOL = 1e-6

PAPER_V2 = dcpnet.ModelConfig(
    widths=(64, 64, 128, 256), emb_dims=512, heads=4, ffn_dims=1024, knn_k=20, dtype="float32"
)
DESK_V2 = dcpnet.ModelConfig(widths=(16, 16, 32, 64), emb_dims=64, heads=4, ffn_dims=128, knn_k=10)


@dataclass(frozen=True)
class Workload:
    name: str
    model: dcpnet.ModelConfig
    n_points: int
    polish: bool = False  # register: polish the DCP result with ICP
    noise: bool = False  # perturb the source with the desk noise model
    train_pairs: int = 0  # > 0 makes this a training workload
    train_epochs: int = 0

    @property
    def trains(self) -> bool:
        return self.train_pairs > 0

    @property
    def inputs_per_op(self) -> int:
        return self.train_pairs if self.trains else 1

    @property
    def pairs_per_op(self) -> int:
        """Pairs one operation registers, or trains summed over epochs."""
        return self.train_pairs * self.train_epochs if self.trains else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("register_1k", PAPER_V2, n_points=1024, noise=True),
        Workload("register_desk", DESK_V2, n_points=128, polish=True, noise=True),
        Workload("train_desk", DESK_V2, n_points=128, train_pairs=16, train_epochs=4),
    )
}


def make_pair(w: Workload, seed: int, index: int, stream: int = 0) -> dataio.LabeledPair:
    """Pair ``index`` of a stream: a fresh shape (kinds cycled), sampled,
    normalised and moved. ``stream`` 1 holds warm-up pairs, never timed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, index]))
    kind = dataio.SHAPE_KINDS[index % len(dataio.SHAPE_KINDS)]
    _, mesh = dataio.build_shape_corpus(1, rng, kinds=(kind,))[0]
    cloud = dataio.normalize_unit_sphere(dataio.sample_surface(mesh, w.n_points, rng))
    pairgen = dataio.PairGenConfig(max_rot_deg=MAX_ROT_DEG, trans_bound=TRANS_BOUND, n_points=w.n_points)
    pair = dataio.generate_pair(cloud, pairgen, rng)
    if w.noise:
        pair = dataio.noisy_pair(pair, pairgen.noise_sigma, pairgen.noise_clip, rng)
    return pair


def rotation_problem(rotation, translation=(0.0, 0.0, 0.0)) -> str | None:
    """Why a registration output is not a finite proper rigid motion, or None."""
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape != (3, 3) or not (np.all(np.isfinite(r)) and np.all(np.isfinite(translation))):
        return f"non-finite or misshapen transform {r.shape}"
    ortho = float(np.max(np.abs(r.T @ r - np.eye(3))))
    if ortho > ROTATION_TOL:
        return f"R^T R differs from I by {ortho:.3e}"
    det = float(np.linalg.det(r))
    if abs(det - 1.0) > ROTATION_TOL:
        return f"det R = {det:.9f}, not +1"
    return None


def geodesic_deg(pred: np.ndarray, gt: np.ndarray) -> float:
    """Angle of R_pred^T R_gt in degrees."""
    cos = (np.trace(pred.T @ gt) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


@dataclass
class Samples:
    """What one measured stretch of a workload produced."""

    latencies: list[float] = field(default_factory=list)  # seconds per pair, one per successful op
    op_seconds: float = 0.0  # wall time of every op, failed ones included
    pairs: int = 0  # pairs the successful ops registered or trained
    attempted: int = 0
    failed: int = 0
    failures: Counter[str] = field(default_factory=Counter)  # exception type -> count
    rot_err_deg: list[float] = field(default_factory=list)
    final_losses: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs one workload's operations, one at a time, on its seeded inputs."""

    def __init__(self, w: Workload, model: dcpnet.ModelParams, seed: int):
        self.w = w
        self.model = model
        self.seed = seed
        self.next_index = 0

    def warm_up(self) -> None:
        """One untimed operation on inputs outside the timed set."""
        pairs = [make_pair(self.w, self.seed, i, stream=1) for i in range(self.w.inputs_per_op)]
        self._operate(pairs, Samples())

    def measure(self, seconds: float, tracer=None) -> list[Samples]:
        """Closed loop: run operations back to back until ``seconds`` pass.

        Without a tracer, returns one stretch. With one, operations alternate
        untraced and traced, the tracer installed only around the traced
        ones, and the two stretches are returned in that order."""
        modes = [None] if tracer is None else [None, tracer]
        stretches = [Samples() for _ in modes]
        deadline = perf_counter() + seconds
        for turn in itertools.count():
            pairs = [make_pair(self.w, self.seed, self.next_index + i) for i in range(self.w.inputs_per_op)]
            self.next_index += len(pairs)
            self._operate(pairs, stretches[turn % len(modes)], modes[turn % len(modes)])
            if perf_counter() >= deadline and all(s.attempted for s in stretches):
                return stretches

    def _operate(self, pairs, out: Samples, tracer=None) -> None:
        out.attempted += 1
        op = self._train if self.w.trains else self._register
        with tracer or contextlib.nullcontext():
            start = perf_counter()
            try:
                result = op(pairs)
            except DcpregError as exc:
                result = exc
            elapsed = perf_counter() - start
        out.op_seconds += elapsed
        if isinstance(result, DcpregError):
            self._failed(result, out)
            return
        out.latencies.append(elapsed / self.w.pairs_per_op)
        out.pairs += self.w.pairs_per_op
        self._check(pairs, result, out)

    @staticmethod
    def _failed(exc: DcpregError, out: Samples) -> None:
        """Count a failed operation. A NumericalError is a known way for a
        valid input to fail (a collapsed pair, say); any other DcpregError on
        these inputs means the program produced an invalid value."""
        kind = type(exc).__name__
        out.failed += 1
        out.failures[kind] += 1
        print(f"operation failed: {kind}: {exc}")
        if not isinstance(exc, NumericalError):
            out.problems.append(f"{kind} on a valid input: {exc}")

    def _register(self, pairs):
        (pair,) = pairs
        pred = dcpnet.dcp_predict(pair.source, pair.target, self.model)
        if self.w.polish:
            pred = icp.polish_with_icp(pair.source.points, pair.target.points, pred)
        return pred

    def _train(self, pairs):
        cfg = train.TrainConfig(
            epochs=self.w.train_epochs, batch_size=TRAIN_BATCH_SIZE, seed=self.seed, val_fraction=0.0
        )
        return train.train(self.model.config, pairs, val_pairs=[], cfg=cfg)

    def _check(self, pairs, result, out: Samples) -> None:
        if self.w.trains:
            model, log = result
            losses = [row["train_loss"] for row in log]
            if len(losses) != self.w.train_epochs or not all(math.isfinite(v) for v in losses):
                out.problems.append(f"training log losses not finite: {losses}")
                return
            out.final_losses.append(losses[-1])
            # The briefly trained model registers its own pairs, so that its
            # outputs are checked too. This runs after the tracer is removed.
            preds = [dcpnet.dcp_predict(p.source, p.target, model) for p in pairs]
        else:
            preds = [result]
        for pair, pred in zip(pairs, preds):
            problem = rotation_problem(pred.rotation, pred.translation)
            if problem:
                out.problems.append(problem)
            else:
                out.rot_err_deg.append(geodesic_deg(pred.rotation, pair.ground_truth.rotation))

