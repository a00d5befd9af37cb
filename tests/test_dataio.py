import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpreg import dataio, dcpnet, geometry as geo, train
from dcpreg.errors import (
    DegenerateCloudError,
    DegenerateMeshError,
    InsufficientDataError,
    InvalidInputError,
    MissingLabelError,
    OffParseError,
)


def write_off(tmp_path, text, name="mesh.off"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


UNIT_SQUARE = """OFF
4 2 0
0 0 0
1 0 0
1 1 0
0 1 0
3 0 1 2
3 0 2 3
"""


# ---------------------------------------------------------------------------
# OFF parsing and surface sampling
# ---------------------------------------------------------------------------

def test_off_unit_square_sampling_mean(tmp_path):
    mesh = dataio.load_off_mesh(write_off(tmp_path, UNIT_SQUARE))
    cloud = dataio.sample_surface(mesh, 10000, seed=3)
    assert np.allclose(cloud.points.mean(axis=0), [0.5, 0.5, 0.0], atol=0.01)


def test_off_single_triangle_containment(tmp_path):
    text = "OFF\n3 1 0\n0 0 0\n2 0 0\n0 3 0\n3 0 1 2\n"
    mesh = dataio.load_off_mesh(write_off(tmp_path, text))
    pts = dataio.sample_surface(mesh, 500, seed=1).points
    # Barycentric coordinates w.r.t. the triangle must all be in [0, 1].
    a, b, c = mesh.vertices
    m = np.stack([b - a, c - a], axis=1)[:2, :]  # planar triangle, z = 0
    uv = np.linalg.solve(m, (pts[:, :2] - a[:2]).T).T
    assert (uv >= -1e-12).all()
    assert (uv.sum(axis=1) <= 1 + 1e-12).all()


def test_off_area_weighted_split(tmp_path):
    # Triangle of area 9 vs triangle of area 1 (legs 6,3 and 2,1).
    text = (
        "OFF\n6 2 0\n"
        "0 0 0\n6 0 0\n0 3 0\n"
        "10 0 0\n12 0 0\n10 1 0\n"
        "3 0 1 2\n3 3 4 5\n"
    )
    mesh = dataio.load_off_mesh(write_off(tmp_path, text))
    pts = dataio.sample_surface(mesh, 10000, seed=7).points
    frac_big = np.mean(pts[:, 0] < 8.0)
    assert abs(frac_big - 0.9) < 0.02


def test_off_fan_triangulation_of_quads(tmp_path):
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    mesh = dataio.load_off_mesh(write_off(tmp_path, text))
    assert mesh.faces.shape == (2, 3)
    assert np.isclose(mesh.triangle_areas().sum(), 1.0)


def test_off_header_and_count_errors(tmp_path):
    with pytest.raises(OffParseError) as exc:
        dataio.load_off_mesh(write_off(tmp_path, "OFX\n3 1 0\n"))
    assert exc.value.line == 1
    with pytest.raises(OffParseError):
        dataio.load_off_mesh(write_off(tmp_path, "OFF\nx y 0\n"))
    with pytest.raises(OffParseError):
        dataio.load_off_mesh(write_off(tmp_path, "OFF\n2 1 0\n0 0 0\n"))
    with pytest.raises(OffParseError) as exc:
        dataio.load_off_mesh(write_off(tmp_path, "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n"))
    assert exc.value.line == 6


def test_off_fused_header_line(tmp_path):
    mesh = dataio.load_off_mesh(write_off(tmp_path, "OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"))
    assert len(mesh.vertices) == 3


def test_zero_area_mesh_rejected(tmp_path):
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n"
    mesh = dataio.load_off_mesh(write_off(tmp_path, text))
    with pytest.raises(DegenerateMeshError):
        dataio.sample_surface(mesh, 10, seed=0)


def test_sample_surface_deterministic(tmp_path):
    mesh = dataio.load_off_mesh(write_off(tmp_path, UNIT_SQUARE))
    a = dataio.sample_surface(mesh, 100, seed=42).points
    b = dataio.sample_surface(mesh, 100, seed=42).points
    assert np.array_equal(a, b)


def test_xyz_roundtrip_and_errors(tmp_path):
    cloud = dataio.PointCloud(np.random.default_rng(0).normal(size=(17, 3)))
    path = tmp_path / "c.xyz"
    dataio.save_xyz(cloud, path)
    back = dataio.load_xyz(path)
    assert np.array_equal(back.points, cloud.points)
    (tmp_path / "bad.xyz").write_text("1 2\n", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        dataio.load_xyz(tmp_path / "bad.xyz")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_sphere_shell(rng):
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cloud = dataio.PointCloud(5.0 * dirs + np.array([1.0, 1.0, 1.0]))
    norm = dataio.normalize_unit_sphere(cloud)
    assert np.linalg.norm(norm.points.mean(axis=0)) < 1e-9
    assert abs(np.linalg.norm(norm.points, axis=1).max() - 1.0) < 1e-9


def test_normalize_idempotent(rng):
    cloud = dataio.PointCloud(rng.normal(size=(50, 3)) * 3 + 1)
    once = dataio.normalize_unit_sphere(cloud)
    twice = dataio.normalize_unit_sphere(once)
    assert np.abs(twice.points - once.points).max() < 1e-12


def test_normalize_degenerate():
    with pytest.raises(DegenerateCloudError):
        dataio.normalize_unit_sphere(dataio.PointCloud(np.ones((4, 3))))


# ---------------------------------------------------------------------------
# Pair generation
# ---------------------------------------------------------------------------

def unit_cloud(rng, n=32):
    return dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(n, 3))))


def test_generate_pair_zero_motion(rng):
    cloud = unit_cloud(rng)
    cfg = dataio.PairGenConfig(max_rot_deg=0.0, trans_bound=0.0, shuffle_target=False)
    pair = dataio.generate_pair(cloud, cfg, np.random.default_rng(1))
    assert np.allclose(pair.ground_truth.rotation, np.eye(3))
    assert np.allclose(pair.ground_truth.translation, 0)
    assert np.array_equal(pair.target.points, cloud.points)


def test_generate_pair_procrustes_recovers_gt(rng):
    cloud = unit_cloud(rng)
    cfg = dataio.PairGenConfig(shuffle_target=False)
    for seed in range(20):
        pair = dataio.generate_pair(cloud, cfg, np.random.default_rng(seed))
        got = geo.procrustes_solve(pair.source.points, pair.target.points)
        assert np.linalg.norm(got.rotation - pair.ground_truth.rotation) < 1e-9
        assert np.linalg.norm(got.translation - pair.ground_truth.translation) < 1e-9


def test_generate_pair_residual_invariant(rng):
    cloud = unit_cloud(rng)
    cfg = dataio.PairGenConfig(shuffle_target=False)
    pair = dataio.generate_pair(cloud, cfg, np.random.default_rng(5))
    mapped = geo.apply_transform(pair.ground_truth, pair.source.points)
    assert np.linalg.norm(mapped - pair.target.points, axis=1).max() < 1e-9


def test_generate_pair_reproducible(rng):
    cloud = unit_cloud(rng)
    cfg = dataio.PairGenConfig()
    a = dataio.generate_pair(cloud, cfg, np.random.default_rng(77))
    b = dataio.generate_pair(cloud, cfg, np.random.default_rng(77))
    assert np.array_equal(a.target.points, b.target.points)
    assert np.array_equal(a.ground_truth.rotation, b.ground_truth.rotation)


def test_rigid_motion_angle_moments():
    cfg = dataio.PairGenConfig()
    rng = np.random.default_rng(123)
    angles = []
    for _ in range(10000):
        motion = dataio.sample_rigid_motion(cfg, rng)
        e = geo.matrix_to_euler_zyx(motion.rotation)
        angles.append([np.degrees(e.roll), np.degrees(e.pitch), np.degrees(e.yaw)])
    means = np.mean(angles, axis=0)
    assert np.all(np.abs(means - 22.5) < 0.5)


def test_generate_pair_shuffle_preserves_set(rng):
    cloud = unit_cloud(rng)
    cfg = dataio.PairGenConfig(shuffle_target=True)
    pair = dataio.generate_pair(cloud, cfg, np.random.default_rng(9))
    mapped = geo.apply_transform(pair.ground_truth, pair.source.points)
    a = np.array(sorted(map(tuple, np.round(mapped, 9))))
    b = np.array(sorted(map(tuple, np.round(pair.target.points, 9))))
    assert np.allclose(a, b, atol=1e-8)


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

def test_noise_zero_sigma_is_identity(rng):
    cloud = unit_cloud(rng)
    out = dataio.add_clipped_gaussian_noise(cloud, 0.0, 0.05, np.random.default_rng(0))
    assert np.array_equal(out.points, cloud.points)


def test_noise_std_and_clip():
    cloud = dataio.PointCloud(np.zeros((333334, 3)))
    out = dataio.add_clipped_gaussian_noise(cloud, 0.01, 0.05, np.random.default_rng(2))
    offsets = out.points
    assert np.abs(offsets).max() <= 0.05
    assert 0.0099 < offsets.std() < 0.0101


def test_noise_saturates_at_tight_clip():
    cloud = dataio.PointCloud(np.zeros((40000, 3)))
    out = dataio.add_clipped_gaussian_noise(cloud, 1.0, 0.001, np.random.default_rng(3))
    at_clip = np.mean(np.abs(np.abs(out.points) - 0.001) < 1e-12)
    assert at_clip > 0.99


def test_noise_order_independent_statistics(rng):
    # Per-point offsets are i.i.d., so reordering the input must not change
    # the offset distribution (checked via moments on a common stream).
    cloud = dataio.PointCloud(rng.normal(size=(20000, 3)))
    perm = rng.permutation(len(cloud))
    a = dataio.add_clipped_gaussian_noise(cloud, 0.01, 0.05, np.random.default_rng(11))
    shuffled = dataio.PointCloud(cloud.points[perm])
    b = dataio.add_clipped_gaussian_noise(shuffled, 0.01, 0.05, np.random.default_rng(11))
    off_a = a.points - cloud.points
    off_b = b.points - shuffled.points
    # Same stream -> same offsets by row (up to re-rounding of p + n - p).
    assert np.allclose(off_a, off_b, atol=1e-15)
    assert abs(off_a.std() - off_b.std()) < 1e-6


def test_noisy_pair_marks_flag(rng):
    cloud = unit_cloud(rng)
    pair = dataio.generate_pair(cloud, dataio.PairGenConfig(), np.random.default_rng(0))
    noisy = dataio.noisy_pair(pair, 0.01, 0.05, np.random.default_rng(1))
    assert noisy.noise_applied
    assert not pair.noise_applied
    assert np.abs(noisy.source.points - pair.source.points).max() <= 0.05


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def make_labeled(rng, n_categories=40, per_category=3):
    clouds = []
    for c in range(n_categories):
        for _ in range(per_category):
            clouds.append(dataio.PointCloud(rng.normal(size=(8, 3)), label=f"cat{c:02d}"))
    return clouds


def test_split_by_category_even(rng):
    clouds = make_labeled(rng)
    train, test = dataio.dataset_split(clouds, "by_category", 0.5, seed=0)
    train_labels = {c.label for c in train}
    test_labels = {c.label for c in test}
    assert len(train_labels) == 20 and len(test_labels) == 20
    assert not (train_labels & test_labels)
    assert len(train) + len(test) == len(clouds)


def test_split_fraction_one(rng):
    clouds = make_labeled(rng, n_categories=4)
    train, test = dataio.dataset_split(clouds, "random_instance", 1.0, seed=1)
    assert len(test) == 0 and len(train) == len(clouds)


def test_split_deterministic(rng):
    clouds = make_labeled(rng, n_categories=6)
    a = dataio.dataset_split(clouds, "by_category", 0.5, seed=9)
    b = dataio.dataset_split(clouds, "by_category", 0.5, seed=9)
    assert [c.label for c in a[0]] == [c.label for c in b[0]]
    assert [c.label for c in a[1]] == [c.label for c in b[1]]


def test_split_missing_labels(rng):
    clouds = [dataio.PointCloud(rng.normal(size=(5, 3)))]
    with pytest.raises(MissingLabelError):
        dataio.dataset_split(clouds, "by_category", 0.5, seed=0)


# ---------------------------------------------------------------------------
# Pair archives
# ---------------------------------------------------------------------------

def archive_pairs(rng):
    """Four pairs: one noisy, one unlabeled, and labels holding commas."""
    cfg = dataio.PairGenConfig(shuffle_target=False)
    labels = ["chair", "table, round", None, "a,b,,c"]
    pairs = [
        dataio.generate_pair(dataio.PointCloud(unit_cloud(rng, n=16).points, label), cfg, np.random.default_rng(s))
        for s, label in enumerate(labels)
    ]
    pairs[2] = dataio.noisy_pair(pairs[2], 0.01, 0.05, np.random.default_rng(5))
    return pairs


def test_pair_archive_roundtrip(tmp_path, rng):
    pairs = archive_pairs(rng)
    path = tmp_path / "pairs.npz"
    dataio.write_pair_archive(pairs, path, seeds=[7, 8, 9, 2**64 - 1])
    back = dataio.read_pair_archive(path)
    assert len(back) == 4
    for orig, got in zip(pairs, back):
        assert np.array_equal(got.source.points, orig.source.points)
        assert np.array_equal(got.target.points, orig.target.points)
        assert np.array_equal(got.ground_truth.rotation, orig.ground_truth.rotation)
        assert np.array_equal(got.ground_truth.translation, orig.ground_truth.translation)
        assert got.noise_applied == orig.noise_applied
        assert got.source.label == got.target.label == orig.source.label


def test_pair_archive_is_a_numpy_archive(tmp_path, rng):
    pairs = archive_pairs(rng)
    path = tmp_path / "pairs.npz"
    dataio.write_pair_archive(pairs, path, seeds=[7, 8, 9, 2**64 - 1])
    with np.load(path, allow_pickle=False) as archive:
        assert archive["labels"].tolist() == ["chair", "table, round", "", "a,b,,c"]
        assert archive["noise_applied"].tolist() == [False, False, True, False]
        assert archive["seeds"].dtype == np.uint64 and archive["seeds"].tolist() == [7, 8, 9, 2**64 - 1]
        assert np.array_equal(archive["000001/source"], pairs[1].source.points)
        assert np.array_equal(archive["000003/translation"], pairs[3].ground_truth.translation)
        assert len(archive.files) == 4 * len(dataio.PAIR_MEMBERS) + 3


def rewrite_arrays(path, drop=(), **extra):
    arrays = dataio.read_arrays(path)
    for name in drop:
        del arrays[name]
    dataio.write_arrays({**arrays, **extra}, path)


@pytest.mark.parametrize(
    "damage, match",
    [
        (lambda p: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2]), "truncated or unreadable"),
        (lambda p: p.write_text("000000,chair,0,\n", encoding="utf-8"), "magic"),
        (lambda p: rewrite_arrays(p, drop=["000002/rotation"]), "missing member '000002/rotation'"),
        (lambda p: rewrite_arrays(p, drop=["labels"]), "not a pair archive"),
        (lambda p: rewrite_arrays(p, labels=np.array(["x"])), "not a pair archive"),
        (lambda p: rewrite_arrays(p, **{"000004/source": np.zeros((3, 3))}), "unexpected member.*000004/source"),
        (lambda p: rewrite_arrays(p, **{"000001/source": np.zeros((3, 4))}), "pair 000001 is malformed"),
        (lambda p: rewrite_arrays(p, **{"000001/translation": np.zeros(4)}), "pair 000001 is malformed"),
        (lambda p: rewrite_arrays(p, **{"000003/target": np.array(["a", "b", "c"])}), "pair 000003 is malformed"),
    ],
    ids=["truncated", "text", "missing-member", "no-labels", "short-labels", "stray-pair", "bad-points",
         "bad-translation", "text-points"],
)
def test_pair_archive_rejects_damaged_file(tmp_path, rng, damage, match):
    path = tmp_path / "pairs.npz"
    dataio.write_pair_archive(archive_pairs(rng), path)
    damage(path)
    with pytest.raises(InvalidInputError, match=match):
        dataio.read_pair_archive(path)


def test_pair_archive_rejects_a_checkpoint(tmp_path):
    path = tmp_path / "model.dcpk"
    train.save_checkpoint(dcpnet.ModelParams.initialize(dcpnet.ModelConfig(widths=(4,), emb_dims=8), seed=0), path)
    with pytest.raises(InvalidInputError, match="not a pair archive"):
        dataio.read_pair_archive(path)


# ---------------------------------------------------------------------------
# Parametric shapes + corpus scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", dataio.SHAPE_KINDS)
def test_shape_meshes_sampleable(kind):
    mesh = dataio.make_shape_mesh(kind, np.random.default_rng(4))
    assert mesh.triangle_areas().sum() > 0
    cloud = dataio.sample_surface(mesh, 64, seed=0)
    assert len(cloud) == 64
    assert np.isfinite(cloud.points).all()


def test_build_corpus_and_scan(tmp_path):
    corpus = dataio.build_shape_corpus(6, seed=11)
    for i, (label, mesh) in enumerate(corpus):
        d = tmp_path / label
        d.mkdir(exist_ok=True)
        dataio.save_off_mesh(mesh, d / f"{label}_{i}.off")
    entries = dataio.scan_corpus(tmp_path)
    assert len(entries) == 6
    labels = {label for label, _ in entries}
    assert labels == {label for label, _ in corpus}
    cloud = dataio.load_corpus_cloud(*entries[0], n_points=50, seed=1)
    assert len(cloud) == 50
    assert abs(np.linalg.norm(cloud.points, axis=1).max() - 1.0) < 1e-9


def test_xyz_corpus_cloud_honours_n_points(tmp_path, rng):
    """An .xyz cloud is subsampled to ``n_points``; one with fewer points is rejected."""
    path = tmp_path / "small.xyz"
    dataio.save_xyz(dataio.PointCloud(rng.normal(size=(20, 3))), path)
    for n_points in (12, 20):
        assert len(dataio.load_corpus_cloud("small", path, n_points, seed=1)) == n_points
    with pytest.raises(InsufficientDataError, match=r"small\.xyz: holds 20 points, fewer than n_points = 32"):
        dataio.load_corpus_cloud("small", path, 32, seed=1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalize_then_pair_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(12, 3))
    if np.linalg.norm(pts - pts.mean(axis=0), axis=1).max() < 1e-9:
        return
    cloud = dataio.normalize_unit_sphere(dataio.PointCloud(pts))
    pair = dataio.generate_pair(cloud, dataio.PairGenConfig(shuffle_target=False), rng)
    mapped = geo.apply_transform(pair.ground_truth, pair.source.points)
    assert np.linalg.norm(mapped - pair.target.points, axis=1).max() < 1e-9
