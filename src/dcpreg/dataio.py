"""Point-cloud ingestion and synthetic labeled-pair generation.

Covers OFF triangle meshes (fan-triangulated), plain XYZ text files,
area-uniform surface sampling, unit-sphere normalization, rigid-pair
synthesis with a clipped-Gaussian noise model, dataset splitting, and the
one array-file container, a zip of ``.npy`` members that ``np.load`` opens,
in which checkpoints and pair archives (one file of all pairs) are written.

OFF, XYZ and ``harness`` config text share one line reader,
:func:`text_lines`, and the parametric shapes' rings of vertices share
one band rule, :func:`_bands`, which joins each ring to the next.
"""

from __future__ import annotations

import io
import math
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import geometry as geo
from .errors import (
    DegenerateCloudError,
    DegenerateMeshError,
    InsufficientDataError,
    InvalidInputError,
    MissingLabelError,
    OffParseError,
)


def as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass(frozen=True)
class PointCloud:
    """Ordered list of 3D points with an optional category label."""

    points: np.ndarray
    label: str | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError(f"points must be (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class TriMesh:
    vertices: np.ndarray  # (V, 3) float
    faces: np.ndarray  # (F, 3) int

    def triangle_areas(self) -> np.ndarray:
        v = self.vertices
        a, b, c = (v[self.faces[:, i]] for i in range(3))
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


@dataclass(frozen=True)
class LabeledPair:
    """Source/target clouds with the rigid motion that generated the target."""

    source: PointCloud
    target: PointCloud
    ground_truth: geo.RigidTransform
    noise_applied: bool = False


@dataclass(frozen=True)
class PairGenConfig:
    max_rot_deg: float = 45.0
    trans_bound: float = 0.5
    n_points: int = 1024
    shuffle_target: bool = True
    noise_sigma: float = 0.01
    noise_clip: float = 0.05

    def __post_init__(self):
        for name in ("max_rot_deg", "trans_bound", "noise_sigma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidInputError(f"{name} must be a finite number of at least 0, got {getattr(self, name)}")
        if not 0.0 < self.noise_clip < math.inf:
            raise InvalidInputError(f"noise_clip must be a finite number above 0, got {self.noise_clip}")
        if self.n_points < 3:
            raise InvalidInputError(f"n_points must be at least 3, got {self.n_points}")


# ---------------------------------------------------------------------------
# OFF meshes and XYZ clouds
# ---------------------------------------------------------------------------

def text_lines(lines):
    """Yield ``(line number, text)`` for each line of ``lines`` that holds
    more than blanks and a ``#`` comment: its text before any ``#``,
    stripped. Line numbers start at 1 and count every line."""
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def _next_tokens(stream, lineno: int, message: str, *args):
    """The next ``(line number, tokens)`` of ``stream``; ``OffParseError``
    of ``message.format(*args)`` at ``lineno`` once the file has ended."""
    try:
        return next(stream)
    except StopIteration:
        raise OffParseError(message.format(*args), line=lineno) from None


def load_off_mesh(path) -> TriMesh:
    """Parse an ASCII OFF file; polygonal faces are fan-triangulated."""
    with open(path, "r", encoding="utf-8") as fh:
        stream = ((lineno, text.split()) for lineno, text in text_lines(fh.readlines()))

    lineno, tokens = _next_tokens(stream, 1, "empty file")
    # Header may be "OFF" alone or "OFF v f e" fused on one line.
    if tokens[0] != "OFF":
        raise OffParseError(f"expected 'OFF' magic, got {tokens[0]!r}", line=lineno)
    counts = tokens[1:]
    if not counts:
        lineno, counts = _next_tokens(stream, lineno, "missing vertex/face counts")
    if len(counts) < 2:
        raise OffParseError("count line needs at least vertex and face counts", line=lineno)
    try:
        n_vert, n_face = int(counts[0]), int(counts[1])
    except ValueError:
        raise OffParseError(f"counts must be integers, got {counts[:2]}", line=lineno) from None
    if n_vert < 0 or n_face < 0:
        raise OffParseError("counts must be non-negative", line=lineno)

    vertices = np.empty((n_vert, 3))
    for i in range(n_vert):
        lineno, tokens = _next_tokens(stream, lineno, "expected {} vertex lines, file ended after {}", n_vert, i)
        if len(tokens) < 3:
            raise OffParseError(f"vertex line has {len(tokens)} coordinates, need 3", line=lineno)
        try:
            vertices[i] = [float(t) for t in tokens[:3]]
        except ValueError:
            raise OffParseError(f"bad vertex coordinates {tokens[:3]}", line=lineno) from None
        if not np.isfinite(vertices[i]).all():
            raise OffParseError(f"vertex coordinates {tokens[:3]} are not finite", line=lineno)

    triangles: list[tuple[int, int, int]] = []
    for i in range(n_face):
        lineno, tokens = _next_tokens(stream, lineno, "expected {} face lines, file ended after {}", n_face, i)
        try:
            k = int(tokens[0])
            idx = [int(t) for t in tokens[1 : 1 + k]]
        except ValueError:
            raise OffParseError(f"bad face line {tokens}", line=lineno) from None
        if k < 3 or len(idx) != k:
            raise OffParseError(f"face declares {k} vertices but lists {len(tokens) - 1}", line=lineno)
        if any(j < 0 or j >= n_vert for j in idx):
            raise OffParseError("face index out of range", line=lineno)
        for j in range(1, k - 1):  # fan triangulation
            triangles.append((idx[0], idx[j], idx[j + 1]))

    faces = np.array(triangles, dtype=np.int64).reshape(-1, 3)
    return TriMesh(vertices, faces)


def save_off_mesh(mesh: TriMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def sample_surface(mesh: TriMesh, n: int, seed) -> PointCloud:
    """Draw ``n`` points area-uniformly from the mesh surface.

    Triangles are chosen with probability proportional to area, points
    placed by the square-root barycentric trick. Deterministic given seed.
    """
    rng = as_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):  # an area past float range is rejected below
        areas = mesh.triangle_areas()
        total = areas.sum()
    if not 0 < total < np.inf:
        raise DegenerateMeshError(f"mesh surface area must be a finite number above 0, got {total}")
    tri_idx = rng.choice(len(areas), size=n, p=areas / total)
    a = mesh.vertices[mesh.faces[tri_idx, 0]]
    b = mesh.vertices[mesh.faces[tri_idx, 1]]
    c = mesh.vertices[mesh.faces[tri_idx, 2]]
    r1 = np.sqrt(rng.random(size=(n, 1)))
    r2 = rng.random(size=(n, 1))
    pts = (1 - r1) * a + r1 * (1 - r2) * b + r1 * r2 * c
    return PointCloud(pts)


def load_xyz(path) -> PointCloud:
    """Read a whitespace-separated ``x y z`` file, one point per line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, text in text_lines(fh):
            tokens = text.split()
            if len(tokens) != 3:
                raise InvalidInputError(f"{path}: line {lineno}: expected 3 values, got {len(tokens)}")
            try:
                rows.append([float(t) for t in tokens])
            except ValueError:
                raise InvalidInputError(f"{path}: line {lineno}: bad number in {tokens}") from None
    if not rows:
        raise InvalidInputError(f"{path}: no points found")
    return PointCloud(np.array(rows))


def load_cloud_file(path, n_points: int, seed) -> PointCloud:
    """A ``.off`` mesh's surface sampled at ``n_points`` points from ``seed``,
    or any other file read as XYZ, every point kept."""
    if Path(path).suffix.lower() == ".off":
        return sample_surface(load_off_mesh(path), n_points, seed)
    return load_xyz(path)


def save_xyz(cloud: PointCloud, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in cloud.points:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")


# ---------------------------------------------------------------------------
# Normalization, pair synthesis, noise
# ---------------------------------------------------------------------------

def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Center at the centroid and scale so the farthest point sits at radius 1."""
    pts = cloud.points
    if pts.shape[0] < 1:
        raise DegenerateCloudError("empty cloud")
    centered = pts - pts.mean(axis=0)
    radius = np.linalg.norm(centered, axis=1).max()
    if radius <= 0:
        raise DegenerateCloudError("all points identical; cannot normalize")
    return PointCloud(centered / radius, label=cloud.label)


def sample_rigid_motion(cfg: PairGenConfig, rng) -> geo.RigidTransform:
    """Draw per-axis angles in [0, max_rot_deg] and translation in +-trans_bound.

    Composition order is fixed: rotate about x, then y, then z
    (``R = Rz @ Ry @ Rx``), so identical draws reproduce identical motions.
    """
    rng = as_rng(rng)
    ax, ay, az = np.radians(rng.uniform(0.0, cfg.max_rot_deg, size=3))
    rot = geo.euler_zyx_to_matrix(az, ay, ax)
    trans = rng.uniform(-cfg.trans_bound, cfg.trans_bound, size=3)
    return geo.RigidTransform(rot, trans)


def generate_pair(cloud: PointCloud, cfg: PairGenConfig, rng) -> LabeledPair:
    """Create a labeled registration pair by rigidly moving ``cloud``."""
    rng = as_rng(rng)
    motion = sample_rigid_motion(cfg, rng)
    target_pts = geo.apply_transform(motion, cloud.points)
    if cfg.shuffle_target:
        target_pts = target_pts[rng.permutation(len(target_pts))]
    return LabeledPair(
        source=cloud,
        target=PointCloud(target_pts, label=cloud.label),
        ground_truth=motion,
        noise_applied=False,
    )


def add_clipped_gaussian_noise(cloud: PointCloud, sigma: float, clip: float, rng) -> PointCloud:
    """Add i.i.d. per-coordinate Gaussian offsets, each clamped to [-clip, clip]."""
    if sigma < 0:
        raise InvalidInputError("sigma must be non-negative")
    if clip <= 0:
        raise InvalidInputError("clip must be positive")
    if sigma == 0:
        return cloud
    rng = as_rng(rng)
    offsets = np.clip(rng.normal(0.0, sigma, size=cloud.points.shape), -clip, clip)
    return PointCloud(cloud.points + offsets, label=cloud.label)


def noisy_pair(pair: LabeledPair, sigma: float, clip: float, rng) -> LabeledPair:
    """Perturb the pair's source cloud; ground truth stays untouched."""
    return replace(
        pair,
        source=add_clipped_gaussian_noise(pair.source, sigma, clip, rng),
        noise_applied=True,
    )


SPLIT_MODES = ("random_instance", "by_category")


def dataset_split(clouds, mode: str, fraction: float, seed) -> tuple[list, list]:
    """Deterministic train/test split of clouds, ``fraction`` of them (or
    of their labels) on the training side.

    ``random_instance`` shuffles individual clouds; ``by_category`` keeps
    whole label groups on one side (first-seen label order before shuffling).
    The caller checks that ``fraction`` lies in [0, 1], as ``harness`` does
    when it reads ``split.fraction``; a mode not in ``SPLIT_MODES`` raises
    ``InvalidInputError``.
    """
    clouds = list(clouds)
    rng = as_rng(seed)
    if mode == "random_instance":
        order = rng.permutation(len(clouds))
        cut = int(round(fraction * len(clouds)))
        train = [clouds[i] for i in order[:cut]]
        test = [clouds[i] for i in order[cut:]]
        return train, test
    if mode == "by_category":
        labels = []
        for c in clouds:
            if c.label is None:
                raise MissingLabelError("by_category split requires labeled clouds")
            if c.label not in labels:
                labels.append(c.label)
        order = rng.permutation(len(labels))
        cut = int(round(fraction * len(labels)))
        train_labels = {labels[i] for i in order[:cut]}
        train = [c for c in clouds if c.label in train_labels]
        test = [c for c in clouds if c.label not in train_labels]
        return train, test
    raise InvalidInputError(f"unknown split mode {mode!r}")


# ---------------------------------------------------------------------------
# Array files: checkpoints and pair archives
# ---------------------------------------------------------------------------

_ZIP_MAGIC = b"PK\x03\x04"
PAIR_MEMBERS = ("source", "target", "rotation", "translation")


def write_arrays(arrays: dict[str, np.ndarray], path) -> None:
    """Write an uncompressed zip of ``<name>.npy`` members that ``np.load``
    opens, each stamped 1980-01-01 so that reruns write identical bytes."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in arrays.items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)


def read_arrays(path, error=InvalidInputError) -> dict[str, np.ndarray]:
    """A :func:`write_arrays` file as ``{name: array}``; raises ``error`` for
    a file that is not a zip, or is truncated or unreadable."""
    with open(path, "rb") as fh:
        if fh.read(4) != _ZIP_MAGIC:
            raise error(f"{path}: bad magic; not a zip of .npy arrays")
    try:
        with zipfile.ZipFile(path) as zf:
            return {
                name.removesuffix(".npy"): np.lib.format.read_array(io.BytesIO(zf.read(name)), allow_pickle=False)
                for name in zf.namelist()
            }
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise error(f"{path}: truncated or unreadable ({exc})") from None


def write_pair_archive(pairs, path, seeds=None) -> None:
    """Write ``pairs`` as one :func:`write_arrays` file: ``<id>/<member>`` for
    each of :data:`PAIR_MEMBERS`, ids ``000000``, ``000001``, ..., then
    ``labels`` (``""`` for none), ``noise_applied`` and, when given, the
    per-pair generation ``seeds`` that regenerate the archive from its corpus."""
    arrays = {}
    for i, pair in enumerate(pairs):
        values = (pair.source.points, pair.target.points, pair.ground_truth.rotation, pair.ground_truth.translation)
        arrays.update((f"{i:06d}/{member}", arr) for member, arr in zip(PAIR_MEMBERS, values))
    arrays["labels"] = np.array([pair.source.label or "" for pair in pairs], dtype=np.str_)
    arrays["noise_applied"] = np.array([pair.noise_applied for pair in pairs], dtype=bool)
    if seeds is not None:
        arrays["seeds"] = np.array(seeds, dtype=np.uint64)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_arrays(arrays, path)


def read_pair_archive(path) -> list[LabeledPair]:
    """Read a :func:`write_pair_archive` file back; ``InvalidInputError`` for
    any other file, a missing or malformed pair member, or a stray member."""
    arrays = read_arrays(path)
    labels, noise = arrays.pop("labels", np.array(None)), arrays.pop("noise_applied", np.array(None))
    arrays.pop("seeds", None)  # LabeledPair has no field for the generation seed
    if labels.ndim != 1 or not labels.size or labels.dtype.kind != "U" or noise.shape != labels.shape or noise.dtype != bool:
        raise InvalidInputError(f"{path}: not a pair archive (needs labels and noise_applied for one or more pairs)")
    pairs = []
    for i, (label, noisy) in enumerate(zip(labels.tolist(), noise.tolist())):
        try:
            src, tgt, rot, trans = [arrays.pop(f"{i:06d}/{member}") for member in PAIR_MEMBERS]
            label = label or None
            pairs.append(LabeledPair(PointCloud(src, label), PointCloud(tgt, label), geo.RigidTransform(rot, trans), noisy))
        except KeyError as exc:
            raise InvalidInputError(f"{path}: missing member {exc.args[0]!r}") from None
        except (InvalidInputError, ValueError) as exc:
            raise InvalidInputError(f"{path}: pair {i:06d} is malformed ({exc})") from None
    if arrays:
        raise InvalidInputError(f"{path}: unexpected member(s) {', '.join(sorted(arrays))}")
    return pairs


# ---------------------------------------------------------------------------
# Parametric test shapes (stand-ins for a mesh corpus)
# ---------------------------------------------------------------------------

SHAPE_KINDS = ("box", "cylinder", "cone", "torus", "wedge", "pyramid", "ellipsoid", "tube")


def make_shape_mesh(kind: str, rng) -> TriMesh:
    """Build one randomized parametric triangle mesh of the given kind."""
    rng = as_rng(rng)
    if kind == "box":
        return _box_mesh(rng.uniform(0.3, 1.5, size=3))
    if kind == "wedge":
        dims = rng.uniform(0.3, 1.5, size=3)
        return _wedge_mesh(*dims)
    if kind == "pyramid":
        return _pyramid_mesh(rng.uniform(0.4, 1.4), rng.uniform(0.4, 1.4), rng.uniform(0.5, 1.6))
    if kind == "cylinder":
        return _lathe_mesh(
            radii=[rng.uniform(0.2, 0.8)] * 2, heights=[0.0, rng.uniform(0.6, 1.8)],
            segments=int(rng.integers(10, 18)), close_caps=True,
        )
    if kind == "cone":
        return _lathe_mesh(
            radii=[rng.uniform(0.3, 0.9), 1e-3], heights=[0.0, rng.uniform(0.6, 1.8)],
            segments=int(rng.integers(10, 18)), close_caps=True,
        )
    if kind == "tube":
        r = rng.uniform(0.3, 0.7)
        return _lathe_mesh(
            radii=[r, r * rng.uniform(0.4, 0.8)], heights=[0.0, rng.uniform(0.8, 1.8)],
            segments=int(rng.integers(10, 18)), close_caps=False,
        )
    if kind == "torus":
        return _torus_mesh(rng.uniform(0.6, 1.0), rng.uniform(0.12, 0.3), int(rng.integers(10, 16)), int(rng.integers(8, 12)))
    if kind == "ellipsoid":
        return _ellipsoid_mesh(rng.uniform(0.3, 1.0, size=3), int(rng.integers(8, 14)))
    raise InvalidInputError(f"unknown shape kind {kind!r}")


def build_shape_corpus(n_shapes: int, seed, kinds=SHAPE_KINDS) -> list[tuple[str, TriMesh]]:
    """Deterministic list of (category, mesh): kinds cycled, parameters varied."""
    rng = as_rng(seed)
    out = []
    for i in range(n_shapes):
        kind = kinds[i % len(kinds)]
        out.append((kind, make_shape_mesh(kind, rng)))
    return out


def _quad(a, b, c, d):
    return [(a, b, c), (a, c, d)]


def _bands(ring_starts, segments) -> list[tuple[int, int, int]]:
    """The band rule: the quads, two triangles each, that join each ring of
    ``segments`` vertices, starting at ``ring_starts[r]``, to the next."""
    return [
        tri
        for base0, base1 in zip(ring_starts, ring_starts[1:])
        for i in range(segments)
        for tri in _quad(base0 + i, base0 + (i + 1) % segments, base1 + (i + 1) % segments, base1 + i)
    ]


def _box_mesh(dims) -> TriMesh:
    dx, dy, dz = dims
    v = np.array(
        [[x, y, z] for x in (0, dx) for y in (0, dy) for z in (0, dz)], dtype=np.float64
    )
    f = []
    f += _quad(0, 1, 3, 2)  # x = 0
    f += _quad(4, 6, 7, 5)  # x = dx
    f += _quad(0, 4, 5, 1)  # y = 0
    f += _quad(2, 3, 7, 6)  # y = dy
    f += _quad(0, 2, 6, 4)  # z = 0
    f += _quad(1, 5, 7, 3)  # z = dz
    return TriMesh(v, np.array(f))


def _wedge_mesh(dx, dy, dz) -> TriMesh:
    v = np.array(
        [
            [0, 0, 0], [dx, 0, 0], [dx, dy, 0], [0, dy, 0],
            [0, 0, dz], [dx, 0, dz],
        ],
        dtype=np.float64,
    )
    f = _quad(0, 1, 2, 3) + _quad(0, 4, 5, 1) + [(3, 2, 5), (3, 5, 4)]
    f += [(0, 3, 4), (1, 5, 2)]
    return TriMesh(v, np.array(f))


def _pyramid_mesh(dx, dy, dz) -> TriMesh:
    v = np.array(
        [[0, 0, 0], [dx, 0, 0], [dx, dy, 0], [0, dy, 0], [dx / 2, dy / 2, dz]],
        dtype=np.float64,
    )
    f = _quad(0, 1, 2, 3) + [(0, 4, 1), (1, 4, 2), (2, 4, 3), (3, 4, 0)]
    return TriMesh(v, np.array(f))


def _lathe_mesh(radii, heights, segments, close_caps) -> TriMesh:
    angles = np.linspace(0, 2 * math.pi, segments, endpoint=False)
    rings = []
    for r, h in zip(radii, heights):
        rings.append(np.stack([r * np.cos(angles), r * np.sin(angles), np.full(segments, h)], axis=1))
    verts = np.concatenate(rings, axis=0)
    faces = _bands(range(0, len(verts), segments), segments)
    if close_caps:
        for base, h in ((0, heights[0]), ((len(rings) - 1) * segments, heights[-1])):
            center = len(verts)
            verts = np.vstack([verts, [0.0, 0.0, h]])
            for i in range(segments):
                faces.append((base + i, base + (i + 1) % segments, center))
    return TriMesh(np.asarray(verts, dtype=np.float64), np.array(faces))


def _torus_mesh(major, minor, n_major, n_minor) -> TriMesh:
    verts = []
    for i in range(n_major):
        a = 2 * math.pi * i / n_major
        for j in range(n_minor):
            b = 2 * math.pi * j / n_minor
            verts.append(
                [
                    (major + minor * math.cos(b)) * math.cos(a),
                    (major + minor * math.cos(b)) * math.sin(a),
                    minor * math.sin(b),
                ]
            )
    faces = _bands([*range(0, len(verts), n_minor), 0], n_minor)  # the last ring joins the first
    return TriMesh(np.array(verts, dtype=np.float64), np.array(faces))


def _ellipsoid_mesh(radii, n_lat) -> TriMesh:
    n_lon = 2 * n_lat
    verts = [[0.0, 0.0, radii[2]]]
    for i in range(1, n_lat):
        theta = math.pi * i / n_lat
        for j in range(n_lon):
            phi = 2 * math.pi * j / n_lon
            verts.append(
                [
                    radii[0] * math.sin(theta) * math.cos(phi),
                    radii[1] * math.sin(theta) * math.sin(phi),
                    radii[2] * math.cos(theta),
                ]
            )
    verts.append([0.0, 0.0, -radii[2]])
    top, bottom = 0, len(verts) - 1
    ring = lambda i: 1 + (i - 1) * n_lon  # noqa: E731 - index helper
    faces = []
    for j in range(n_lon):
        faces.append((top, ring(1) + j, ring(1) + (j + 1) % n_lon))
        faces.append((bottom, ring(n_lat - 1) + (j + 1) % n_lon, ring(n_lat - 1) + j))
    faces += _bands([ring(i) for i in range(1, n_lat)], n_lon)
    return TriMesh(np.array(verts, dtype=np.float64), np.array(faces))


# ---------------------------------------------------------------------------
# Corpus scanning
# ---------------------------------------------------------------------------

def scan_corpus(root) -> list[tuple[str, Path]]:
    """Find mesh/cloud files under ``root``; label = containing directory name.

    Files directly under ``root`` are labeled by their filename stem.
    Returns (label, path) sorted by path for determinism.
    """
    root = Path(root)
    if not root.is_dir():
        raise InvalidInputError(f"corpus directory {root} does not exist")
    entries = []
    for path in sorted(root.rglob("*")):
        if path.suffix.lower() not in (".off", ".xyz"):
            continue
        label = path.parent.name if path.parent != root else path.stem
        entries.append((label, path))
    if not entries:
        raise InvalidInputError(f"no .off or .xyz files under {root}")
    return entries


def load_corpus_cloud(label: str, path: Path, n_points: int, seed) -> PointCloud:
    """Load one corpus entry as a normalized cloud of ``n_points`` points."""
    cloud = load_cloud_file(path, n_points, seed)
    if len(cloud) < n_points:
        raise InsufficientDataError(f"{path}: holds {len(cloud)} points, fewer than n_points = {n_points}")
    if len(cloud) > n_points:
        idx = as_rng(seed).choice(len(cloud), size=n_points, replace=False)
        cloud = PointCloud(cloud.points[np.sort(idx)])
    return normalize_unit_sphere(PointCloud(cloud.points, label=label))
