"""The associative (parallel) formulation of the selective scan: the
reference that ``scan.selective_scan`` is checked against (criterion 2).

The recurrence h_t = A_t * h_{t-1} + B_t * x_t composes associatively,
(a2, b2) o (a1, b1) = (a2*a1, a2*b1 + b2), so a Hillis-Steele doubling scan
computes every h_t in log2(T) steps of whole-stream numpy expressions.
"""

import numpy as np

from capt import diffcore as dc
from capt import scan


def sequential_values(x, a_bar, b_bar, c, d):
    """y (T, C) of ``scan.selective_scan``'s B_bar form, run outside a tape."""
    return scan.selective_scan(*(dc.Tensor(v) for v in (x, a_bar, b_bar, c, d))).data


def parallel_values(x, a_bar, b_bar, c, d):
    """y (T, C) by the associative prefix scan (Hillis-Steele doubling)."""
    t_len = x.shape[0]
    a = a_bar.copy()
    b = b_bar * x[:, :, None]
    offset = 1
    while offset < t_len:
        # RHS reads pre-update values in full before assignment
        b[offset:] = b[offset:] + a[offset:] * b[:-offset]
        a[offset:] = a[offset:] * a[:-offset]
        offset *= 2
    return np.einsum("tcs,ts->tc", b, c) + d * x
