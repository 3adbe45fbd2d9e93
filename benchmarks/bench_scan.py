#!/usr/bin/env python3
"""Benchmark the selective-scan and discretization ops at the shapes training runs.

For each (T, C, S) shape this times forward alone and forward plus
``Tape.backward`` (the cost one training step pays per call) of three ops:
``scan.selective_scan`` in its B_bar form, which takes a (T, C, S) B_bar;
``selective_scan(..., delta=)``, which takes delta and the (T, S) B and is
the form training runs; and ``encoder.discretize``, which builds A_bar.
Each time is the best of ``--repeats`` runs, in ms; next to it stand the
minor page faults per call, averaged over the repeats, which read near 0
once freed heap memory is kept for reuse.  Discretization's backward starts
from a given gradient of A_bar, copied into a fresh buffer as the scan's
backward hands over its own.

The last column is what the forward holds for the backward under a tape
(its output and the arrays its backward closure keeps), traced with
``tracemalloc`` in one extra, untimed call.  For the scan that is y and
either all T + 1 states, when they fit ``scan.KEEP_BYTES``, or else only
the state entering each chunk (``scan.CHUNK_BYTES`` sets the chunk), from
which the backward recomputes the chunk.

The default shapes are the per-call scan shapes of perfbench's train_short
(242, 96, 8) and train_long (756, 128, 16) workloads.

BLAS runs on one thread, as in perfbench, unless the environment says
otherwise.

Usage: PYTHONPATH=src python3 benchmarks/bench_scan.py [--repeats 7]
"""

import argparse
import os
import resource
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # must precede the numpy import

import numpy as np  # noqa: E402

SHAPES = [(242, 96, 8), (756, 128, 16)]


def make_instance(rng, t_len, n_ch, n_st):
    return (
        rng.normal(size=(t_len, n_ch)),
        rng.uniform(0.0, 1.0, size=(t_len, n_ch, n_st)),
        rng.normal(size=(t_len, n_ch, n_st)),
        rng.normal(size=(t_len, n_st)),
        rng.normal(size=n_ch),
    )


def best_ms(fn, repeats):
    """(best time in ms, minor page faults per call) over ``repeats`` calls."""
    fn()  # warm up
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return min(times) * 1e3, faults / repeats


def retained_mib(fn):
    """MiB that ``fn`` leaves allocated while its tape is alive."""
    from capt import diffcore as dc

    tracemalloc.start()
    with dc.Tape():
        before = tracemalloc.get_traced_memory()[0]
        out = fn()  # noqa: F841 -- held until the tape closes, as training holds it
        held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return held / 2**20


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()

    from capt import diffcore as dc
    from capt import scan
    from capt.encoder import discretize

    def scan_fns(ins, **delta):
        """Forward and forward-plus-backward of selective_scan on ``ins``."""
        def forward():
            return scan.selective_scan(*ins, **delta)

        def forward_backward():
            for t in (*ins, *delta.values()):
                t.grad = None
            with dc.Tape() as tape:
                tape.backward(dc.total_sum(scan.selective_scan(*ins, **delta)))
        return forward, forward_backward

    rng = np.random.default_rng(0)
    header = (f"{'op':>21} {'T x C x S':>16} {'forward (ms)':>13} {'faults':>7} "
              f"{'fwd+bwd (ms)':>13} {'faults':>7} {'kept (MiB)':>11}")
    print(f"scan.CHUNK_BYTES {scan.CHUNK_BYTES}, scan.KEEP_BYTES {scan.KEEP_BYTES}")
    print(header)
    print("-" * len(header))
    for shape in SHAPES:
        t_len, n_ch, n_st = shape
        tensors = [dc.Tensor(v) for v in make_instance(rng, *shape)]
        # the delta form: the (T, S) B takes B_bar's place
        delta = dc.Tensor(rng.uniform(0.01, 3.0, size=(t_len, n_ch)))
        delta_form = tensors[:2] + [dc.Tensor(rng.normal(size=(t_len, n_st)))] + tensors[3:]
        a_neg = dc.Tensor(-np.exp(rng.normal(size=(n_ch, n_st))))
        g_a = rng.normal(size=(t_len, n_ch, n_st))

        def disc_forward_backward():
            for t in (delta, a_neg):
                t.grad = None
            with dc.Tape() as tape:
                discretize(delta, a_neg).grad = g_a.copy()
                tape.backward(dc.Tensor(0.0))

        rows = [("selective_scan B_bar", *scan_fns(tensors)),
                ("selective_scan delta", *scan_fns(delta_form, delta=delta)),
                ("discretize", lambda: discretize(delta, a_neg), disc_forward_backward)]
        for name, fwd_fn, both_fn in rows:
            fwd, fwd_faults = best_ms(fwd_fn, args.repeats)
            both, both_faults = best_ms(both_fn, args.repeats)
            print(f"{name:>21} {str(shape):>16} {fwd:13.3f} {fwd_faults:7.0f} "
                  f"{both:13.3f} {both_faults:7.0f} {retained_mib(fwd_fn):11.2f}")


if __name__ == "__main__":
    main()
