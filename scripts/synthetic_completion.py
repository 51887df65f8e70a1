#!/usr/bin/env python3
"""Recover a synthetic low-tubal-rank tensor from partial observations.

Builds a = x *_L y with Gaussian factors, samples a uniform observation
mask, runs the accelerated proximal-gradient solver, and prints the
per-iteration trace.
"""

import argparse

import numpy as np

from ltensor.completion import CompletionConfig, pga_complete, sample_mask
from ltensor.linalg import l_product
from ltensor.transforms import make_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="20,20,3,5", help="comma-separated tensor dims")
    ap.add_argument("--rank", type=int, default=2, help="tubal rank of the ground truth")
    ap.add_argument("--sr", type=float, default=0.5, help="sampling ratio")
    ap.add_argument("--transform", choices=("fft", "dct"), default="fft")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-iters", type=int, default=300)
    ap.add_argument("--tol", type=float, default=CompletionConfig.tol)
    ap.add_argument("--trace-csv", default=None)
    args = ap.parse_args()

    dims = tuple(int(d) for d in args.dims.split(","))
    rng = np.random.default_rng(args.seed)
    spec = make_spec(args.transform, dims)
    x = rng.standard_normal((dims[0], args.rank) + dims[2:])
    y = rng.standard_normal((args.rank, dims[1]) + dims[2:])
    m = l_product(x, y, spec)
    mask = sample_mask(dims, args.sr, args.seed)

    cfg = CompletionConfig(spec=spec, tol=args.tol, max_iters=args.max_iters)
    out, trace = pga_complete(m, mask, cfg, ground_truth=m)

    for rec in trace.records:
        line = f"iter {rec.k:4d}  mu {rec.mu:.4e}  rel_change {rec.rel_change:.4e}"
        if rec.rse is not None:
            line += f"  rse {rec.rse:.4e}  psnr {rec.psnr:.2f}"
        print(line)
    print(f"status: {trace.status} after {trace.iterations} iterations")
    if args.trace_csv:
        trace.write_csv(args.trace_csv)
        print(f"trace written to {args.trace_csv}")


if __name__ == "__main__":
    main()
