import json
from dataclasses import asdict

import numpy as np
import pytest

from dcpreg import train


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


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


def save_with_config_bytes(model, path, cfg_bytes):
    """Save ``model``, then swap its config record for ``cfg_bytes``."""

    def record(cfg_json: bytes) -> bytes:
        return train._encode_record("__config__", np.frombuffer(cfg_json, dtype=np.uint8))

    train.save_checkpoint(model, path)
    old = record(json.dumps(asdict(model.config), sort_keys=True).encode("utf-8"))
    blob = path.read_bytes()
    assert old in blob
    path.write_bytes(blob.replace(old, record(cfg_bytes), 1))
