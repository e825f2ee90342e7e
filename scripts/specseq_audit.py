#!/usr/bin/env python3
"""Stress the spectral-sequence engine on random filtered complexes.

For each instance every page E^1..E^{r+1} must match the cycle/boundary
oracle in its dimensions and in the ranks of its differential d_k, and
the stable page's graded dimensions must reproduce the homology of the
underlying complex; QMD_SEED controls the stream.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from _oracles import (differential_ranks, naive_homology_dims,  # noqa: E402
                      oracle_differential_ranks, oracle_page,
                      random_filtered_complex)

from qmdkit.specseq import converge, page  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--max-gens", type=int, default=40)
    args = parser.parse_args()

    seed = int(os.environ.get("QMD_SEED", "0"))
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    stable_counts = {}
    n_pages = 0
    for i in range(args.instances):
        fc, _ = random_filtered_complex(rng, max_gens=args.max_gens)
        for k in range(1, fc.max_filtration + 2):
            got, want = page(fc, k), oracle_page(fc, k)
            if got.dims() != want.dims():
                print(f"instance {i}: page {k} dims {got.dims()} != oracle {want.dims()}")
                return 1
            if differential_ranks(got) != oracle_differential_ranks(want):
                print(f"instance {i}: d_{k} ranks {differential_ranks(got)} != "
                      f"oracle {oracle_differential_ranks(want)}")
                return 1
            n_pages += 1
        stable, einf = converge(fc)
        stable_counts[stable] = stable_counts.get(stable, 0) + 1
        graded = einf.total_dims()
        oracle = naive_homology_dims(fc)
        for n in set(graded) | set(oracle):
            if graded.get(n, 0) != oracle.get(n, 0):
                print(f"instance {i}: graded {graded} != homology {oracle}")
                return 1
    elapsed = time.perf_counter() - t0
    print(f"{args.instances} instances ({n_pages} pages) agree with the page "
          f"and homology oracles ({elapsed:.1f}s, seed {seed})")
    print("stabilization page histogram:",
          dict(sorted(stable_counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
