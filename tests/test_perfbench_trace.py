"""The tracer contract that perfbench's ``--trace 1`` mode relies on.

perfbench wraps capt's entry points from outside the package
(perfbench/spans.py) and reads layer times, tape-op counts and scan shapes
off the spans (perfbench/workloads.py).  These tests run one traced
training epoch and traced predictions on a small criterion-5 corpus, so a
change under src/ that breaks the traced mode fails here.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from spans import OP, Tracer  # noqa: E402

from capt import model as model_mod  # noqa: E402
from capt import training  # noqa: E402

WS = workloads.WORKLOADS["train_short"]  # the criterion-5 encoder, batches of 16
N_RECORDS = 32
N_PREDICT = 8


@pytest.fixture(scope="module")
def records():
    return workloads.synth(WS, N_RECORDS, workloads.DEFAULT_SEED)


def fresh_model(records):
    return model_mod.init_model(WS.encoder, records[0].features.shape[1],
                                seed=workloads.INIT_SEED)


def traced_epoch(records) -> Tracer:
    tracer = Tracer(training_ops=True)
    with tracer:
        training.train(records, workloads.train_config(WS, epochs=1), fresh_model(records))
    return tracer


def scan_shapes(tracer: Tracer) -> list:
    return [tuple(sp[4]) for sp in tracer.spans if sp[0] == "scan"]


def assert_packed_scan_shapes(shapes, n_rows: int):
    """Each scan span is one (T, C, S) packed stream, and the streams of both
    directions cover each of the ``n_rows`` packed rows (phones and think
    tokens of every utterance) once per layer."""
    cfg = WS.encoder
    assert shapes
    for t, c, s in shapes:
        assert t > 0 and (c, s) == (cfg.d_inner, cfg.d_state)
    assert sum(t for t, _, _ in shapes) == 2 * cfg.n_layers * n_rows


def test_traced_training_epoch_meets_the_contract(records):
    first, second = traced_epoch(records), traced_epoch(records)
    n_ops = math.ceil(N_RECORDS / WS.batch_size)
    assert sum(sp[3] < 0 for sp in first.spans) == n_ops  # one op per optimizer step
    layers, acct = workloads.per_layer(first.spans, n_ops, records)
    assert acct["spans_account_for_op_time"]
    assert all(math.isfinite(v) for v, _ in layers.values())
    counts = workloads._tape_counts(first)
    assert len(counts) == n_ops and min(counts) > 0
    assert counts == workloads._tape_counts(second)
    n_rows = sum(r.n_phones + WS.encoder.n_think for r in records)
    assert_packed_scan_shapes(scan_shapes(first), n_rows)
    replay = workloads.replay_scan(acct["shapes"], seed=workloads.DEFAULT_SEED)
    assert all(v > 0 and math.isfinite(v) for v, _ in replay.values())


def test_traced_predict_meets_the_contract(records):
    m = fresh_model(records)
    tracer = Tracer(training_ops=False)
    with tracer:
        for r in records[:N_PREDICT]:
            m.predict(r.features, r.canonical_ids(), r.word_spans())
    assert [sp[0] for sp in tracer.spans if sp[3] < 0] == [OP] * N_PREDICT
    _, acct = workloads.per_layer(tracer.spans, N_PREDICT, records[:N_PREDICT])
    assert acct["spans_account_for_op_time"]
    n_rows = sum(r.n_phones + WS.encoder.n_think for r in records[:N_PREDICT])
    assert_packed_scan_shapes(scan_shapes(tracer), n_rows)
    replay = workloads.replay_scan(acct["shapes"], seed=workloads.DEFAULT_SEED)
    assert all(v > 0 and math.isfinite(v) for v, _ in replay.values())
