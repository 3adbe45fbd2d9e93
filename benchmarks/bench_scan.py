#!/usr/bin/env python3
"""Benchmark the selective-scan op at the shapes training runs.

For each (T, C, S) shape this times ``scan.selective_scan`` forward alone,
forward plus ``Tape.backward`` (the cost one training step pays per scan
call), and the associative ``scan_parallel_values`` formulation for
comparison.  Each figure is the best of ``--repeats`` runs, in ms.

The default shapes are the per-call scan shapes of perfbench's train_short
(242, 96, 8) and train_long (756, 128, 16) workloads.

BLAS runs on one thread, as in perfbench, unless the environment says
otherwise.

Usage: PYTHONPATH=src python3 benchmarks/bench_scan.py [--repeats 7]
"""

import argparse
import os
import time

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
    fn()  # warm up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()

    from capt import diffcore as dc
    from capt import scan

    rng = np.random.default_rng(0)
    header = (f"{'T x C x S':>16} {'forward (ms)':>13} {'fwd+bwd (ms)':>13} "
              f"{'parallel (ms)':>14}")
    print(header)
    print("-" * len(header))
    for shape in SHAPES:
        inst = make_instance(rng, *shape)
        tensors = [dc.Tensor(v) for v in inst]

        def forward():
            scan.selective_scan(*tensors)

        def forward_backward():
            for t in tensors:
                t.grad = None
            with dc.Tape() as tape:
                tape.backward(dc.total_sum(scan.selective_scan(*tensors)))

        fwd = best_ms(forward, args.repeats)
        both = best_ms(forward_backward, args.repeats)
        par = best_ms(lambda: scan.scan_parallel_values(*inst), args.repeats)
        print(f"{str(shape):>16} {fwd:13.3f} {both:13.3f} {par:14.3f}")


if __name__ == "__main__":
    main()
