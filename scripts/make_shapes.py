#!/usr/bin/env python3
"""Generate a synthetic OFF-mesh corpus of parametric shapes.

Stands in for a CAD-model dataset when none is available: categories are
primitive kinds (box, cylinder, torus, ...) with randomized dimensions,
laid out as <out>/<category>/<category>_<i>.off.
"""

import argparse
from pathlib import Path

from dcpreg import dataio


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="corpus directory to create")
    parser.add_argument("--n-shapes", type=int, default=20)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.n_shapes < 1:
        parser.error("--n-shapes must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    out = Path(args.out)
    corpus = dataio.build_shape_corpus(args.n_shapes, seed=args.seed)
    for i, (label, mesh) in enumerate(corpus):
        directory = out / label
        directory.mkdir(parents=True, exist_ok=True)
        dataio.save_off_mesh(mesh, directory / f"{label}_{i:03d}.off")
    print(f"wrote {len(corpus)} meshes under {out}")


if __name__ == "__main__":
    main()
