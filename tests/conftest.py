import io
import zipfile

import numpy as np
import pytest

from dcpreg import autodiff as ad, train


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def score_tile_rows(monkeypatch):
    """Row counts of the 2-D blocks ``autodiff._softmax`` works on, which
    are attention's score tiles (the pointer's softmax runs on (B, n, m))."""
    rows = []
    softmax = ad._softmax

    def spy(x, axis, out=None):
        if x.ndim == 2:
            rows.append(x.shape[0])
        return softmax(x, axis, out)

    monkeypatch.setattr(ad, "_softmax", spy)
    return rows


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix via a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr)
    return buf.getvalue()


def rewrite_checkpoint(path, replace=None, drop=()):
    """Rewrite the checkpoint zip at ``path`` member by member.

    ``replace`` maps member file names to an array (stored as ``.npy``) or
    raw bytes, overwriting or adding them; members named in ``drop`` go.
    """
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    for name in drop:
        del members[name]
    for name, value in (replace or {}).items():
        members[name] = npy_bytes(value) if isinstance(value, np.ndarray) else value
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


def save_with_config_bytes(model, path, cfg_bytes):
    """Save ``model``, then swap its ``__config__`` member for ``cfg_bytes``."""
    train.save_checkpoint(model, path)
    with zipfile.ZipFile(path) as zf:
        assert "__config__.npy" in zf.namelist()
    rewrite_checkpoint(path, {"__config__.npy": np.frombuffer(cfg_bytes, dtype=np.uint8)})
