"""Run one cubevar CLI command in this fresh process and record its timings.

    python3 child.py --result FILE [--setup-only [--meta]] [--trace SPANS [--delay S]] -- CLI ARGS

Writes a JSON object to FILE: `ready` (CLOCK_MONOTONIC once `cubevar.cli` is
imported), with --meta the numpy and BLAS facts of this process under `meta`,
and unless --setup-only, `solve_s` (wall time of
`cubevar.cli.main(argv)`) and `exit` (its return value).  With --trace, the
layers are wrapped before the command runs, the spans are written to SPANS
and the per-layer summary is added under `layers`, with the number of `spans`
and the `wrapper_cost_s` of one traced call.  --delay sleeps S seconds
inside every call of the self-test's slowed layer; it needs --trace.  The
package must be importable (PYTHONPATH).
"""
import argparse
import json
import sys
import time


def blas_threads():
    """Threads the OpenBLAS loaded by numpy will use, asked from the library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def numpy_meta() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"numpy": numpy.__version__, "blas": blas, "blas_threads": blas_threads()}


def main(argv) -> int:
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--meta", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--delay", type=float, default=0.0)
    args = parser.parse_args(argv[:cut])
    cli_argv = argv[cut + 1:]

    import cubevar.cli

    out = {"ready": time.monotonic()}
    if args.meta:
        out["meta"] = numpy_meta()
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer(args.delay)
            tracing.install(tracer)
        elif args.delay:
            parser.error("--delay needs --trace")
        start = time.perf_counter()
        out["exit"] = cubevar.cli.main(cli_argv)
        out["solve_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.write_spans(args.trace)
            out["layers"] = tracer.summary()
            out["spans"] = len(tracer.spans)
            out["wrapper_cost_s"] = tracing.wrapper_cost_s()
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
