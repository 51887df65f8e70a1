"""Command line interface: masks, completion runs, t-SVD, products, metrics.

Exit codes: 0 success, 1 usage error, 2 numeric or format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import completion, io, linalg
from .errors import LTensorError
from .transforms import make_spec


def _parse_dims(text):
    try:
        dims = tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}, expected e.g. 10,10,3")
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("dims must be positive")
    return dims


def _parse_modes(text):
    if text == "3..N":
        return None  # make_spec default: all trailing modes
    try:
        return tuple(int(m) for m in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad modes {text!r}, expected '3..N' or e.g. '3'")


def _add_transform_flags(p):
    p.add_argument("--transform", choices=("fft", "dct", "cprod"), required=True)
    p.add_argument(
        "--modes", type=_parse_modes, default="3..N", help="'3..N' (default) or comma list like '3'"
    )


def build_parser():
    parser = argparse.ArgumentParser(prog="ltensor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    mask = sub.add_parser("mask", help="observation mask utilities")
    mask_sub = mask.add_subparsers(dest="mask_command", required=True)
    gen = mask_sub.add_parser("gen", help="sample a uniform observation mask")
    gen.set_defaults(handler=_cmd_mask)
    gen.add_argument("--dims", type=_parse_dims, required=True)
    gen.add_argument("--sr", type=float, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    comp = sub.add_parser("complete", help="run tensor completion")
    comp.set_defaults(handler=_cmd_complete)
    comp.add_argument("--input", required=True)
    comp.add_argument("--mask", required=True)
    _add_transform_flags(comp)
    comp.add_argument("--ground-truth", default=None)
    comp.add_argument("--trace-csv", default=None)
    comp.add_argument("--out", required=True)
    # Only the solver flags given reach CompletionConfig, which owns the defaults.
    solver = comp.add_argument_group("solver options", argument_default=argparse.SUPPRESS)
    solver.add_argument("--nu", type=float)
    solver.add_argument("--mu0", type=float)
    solver.add_argument("--mu-bar-ratio", type=float)
    solver.add_argument("--tol", type=float)
    solver.add_argument("--max-iters", type=int)
    solver.add_argument("--reimpose-observed", action="store_true")
    solver.add_argument("--rse-denominator", choices=completion.RSE_DENOMINATORS)

    tsvd = sub.add_parser("tsvd", help="compute the *_L-SVD factors")
    tsvd.set_defaults(handler=_cmd_tsvd)
    tsvd.add_argument("--input", required=True)
    _add_transform_flags(tsvd)
    tsvd.add_argument("--out-u", required=True)
    tsvd.add_argument("--out-s", required=True)
    tsvd.add_argument("--out-v", required=True)
    tsvd.add_argument("--truncate", type=int, default=None, metavar="K")

    prod = sub.add_parser("product", help="compute a *_L product")
    prod.set_defaults(handler=_cmd_product)
    prod.add_argument("--a", required=True)
    prod.add_argument("--b", required=True)
    _add_transform_flags(prod)
    prod.add_argument("--out", required=True)

    svt_p = sub.add_parser("svt", help="singular value thresholding")
    svt_p.set_defaults(handler=_cmd_svt)
    svt_p.add_argument("--input", required=True)
    svt_p.add_argument("--tau", type=float, required=True)
    _add_transform_flags(svt_p)
    svt_p.add_argument("--out", required=True)

    metrics = sub.add_parser("metrics", help="print RSE and PSNR between two tensors")
    metrics.set_defaults(handler=_cmd_metrics)
    metrics.add_argument("--a", required=True, help="obtained tensor")
    metrics.add_argument("--b", required=True, help="original tensor")
    return parser


def _cmd_mask(args):
    io.write_container(args.out, completion.sample_mask(args.dims, args.sr, args.seed))


def _cmd_complete(args):
    m = io.read_container(args.input)
    mask = io.read_container(args.mask)
    solver_fields = {f.name for f in dataclasses.fields(completion.CompletionConfig)}
    given = {k: v for k, v in vars(args).items() if k in solver_fields}
    cfg = completion.CompletionConfig(spec=make_spec(args.transform, m.shape, modes=args.modes), **given)
    truth = io.read_container(args.ground_truth) if args.ground_truth else None
    x, trace = completion.pga_complete(m, mask, cfg, ground_truth=truth)
    io.write_container(args.out, x)
    if args.trace_csv:
        trace.write_csv(args.trace_csv)
    last = trace.records[-1]
    print(f"status {trace.status} after {trace.iterations} iterations, rel_change {last.rel_change:.3e}")
    if last.rse is not None:
        print(f"RSE {last.rse:.6g}")
        print(f"PSNR {last.psnr:.6g}")


def _cmd_tsvd(args):
    a = io.read_container(args.input)
    spec = make_spec(args.transform, a.shape, modes=args.modes)
    f = linalg.t_svd(a, spec)
    u, s, v = (f.u, f.s, f.v) if args.truncate is None else f.leading(args.truncate)
    io.write_container(args.out_u, u)
    io.write_container(args.out_s, s)
    io.write_container(args.out_v, v)


def _cmd_product(args):
    a = io.read_container(args.a)
    b = io.read_container(args.b)
    spec = make_spec(args.transform, a.shape, modes=args.modes)
    io.write_container(args.out, linalg.l_product(a, b, spec))


def _cmd_svt(args):
    a = io.read_container(args.input)
    spec = make_spec(args.transform, a.shape, modes=args.modes)
    io.write_container(args.out, linalg.svt(a, args.tau, spec))


def _cmd_metrics(args):
    obtained = io.read_container(args.a)
    original = io.read_container(args.b)
    value = completion.psnr(obtained, original)  # refuses complex tensors before anything prints
    print(f"RSE {completion.rse(obtained, original):.12g}")
    print(f"PSNR {value:.12g}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        args.handler(args)
    except (LTensorError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
