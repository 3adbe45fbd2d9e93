"""Fuzzing of the model-input contract.

``Model.forward`` is the one place that checks and converts the model's
inputs: the feature rows, the canonical phone ids, the word spans and, for
a packed batch, the phone counts.  A malformed value of any of the four
raises a ``CaptError`` subclass; no other exception, and no warning, may
escape.  Each example replaces one argument of a valid two-utterance batch
and runs it through ``Model.forward`` and through ``Model.predict``.  The
examples are derandomized, so every run tests the same inputs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capt import data as dm
from capt.encoder import EncoderConfig
from capt.errors import AlignmentError, CaptError, ContractError
from capt.model import init_model

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

MODEL = init_model(EncoderConfig(d_model=4, d_state=2, n_layers=1, n_think=1),
                   feat_dim=5, seed=0)
_A, _B = dm.synth_records(2, seed=3, ssl_dim=4)[0]
N_A, N = _A.n_phones, _A.n_phones + _B.n_phones
VALID = {
    "feature_rows": np.concatenate([_A.features, _B.features]),
    "phone_ids": np.concatenate([_A.canonical_ids(), _B.canonical_ids()]),
    "word_spans": _A.word_spans() + [(s + N_A, e + N_A) for s, e in _B.word_spans()],
    "n_phones": [N_A, _B.n_phones],
}


def _with_non_finite(cell):
    row, col, value = cell
    rows = VALID["feature_rows"].copy()
    rows[row, col] = value
    return rows


SCALARS = st.none() | st.booleans() | st.integers(-3, 2 * N) | st.floats() | st.text(max_size=3)
RAGGED = st.lists(st.lists(st.integers(0, N), max_size=3), min_size=2, max_size=4)
DTYPES = st.sampled_from([bool, complex, str, object, np.float32, np.float64, np.int64])
FEATURES = st.one_of(
    DTYPES.map(VALID["feature_rows"].astype),
    st.lists(st.integers(0, N + 1), max_size=3).map(lambda shape: np.zeros(tuple(shape))),
    st.tuples(st.integers(0, N - 1), st.integers(0, 4),
              st.sampled_from([np.nan, np.inf, -np.inf])).map(_with_non_finite),
    SCALARS, RAGGED)
IDS = st.one_of(
    DTYPES.map(VALID["phone_ids"].astype),
    st.lists(st.integers(-3, 45) | st.floats(-3, 45), min_size=N - 1, max_size=N + 1),
    SCALARS, RAGGED)
BOUND = st.integers(-2, N + 2)
SPANS = st.one_of(
    st.lists(st.tuples(BOUND, BOUND), max_size=8),
    st.lists(st.tuples(BOUND | st.floats(-2, N + 2), BOUND), min_size=1, max_size=8),
    SCALARS, RAGGED)
COUNTS = st.one_of(
    st.lists(st.integers(-2, N + 1), max_size=4),
    st.lists(st.integers(-2, N + 1) | st.floats(-2, N + 1) | st.integers(-2**70, 2**70),
             min_size=1, max_size=4),
    SCALARS, RAGGED)

# the malformed inputs that were once accepted, or escaped as TypeError or ValueError
PROBES = [
    ("feature_rows", VALID["feature_rows"].astype(str), ContractError),
    ("feature_rows", VALID["feature_rows"].astype(object), ContractError),
    ("feature_rows", VALID["feature_rows"] + 1j, ContractError),
    ("feature_rows", VALID["feature_rows"] > 0, ContractError),
    ("word_spans", [(0, 1.5), (1.5, N)], AlignmentError),
    ("word_spans", None, AlignmentError),
    ("word_spans", 5, AlignmentError),
    ("word_spans", [(0, 1), (1,)], AlignmentError),
    ("word_spans", [(0, 1, 2), (1, N, 3)], AlignmentError),
    ("n_phones", [N_A + 0.7, _B.n_phones + 0.3], ContractError),
]


def calls(arg, value):
    """The valid batch with ``arg`` replaced, forwarded as a batch and
    predicted as one utterance; predict takes no phone counts."""
    inputs = {**VALID, arg: value}
    single = (inputs["feature_rows"], inputs["phone_ids"], inputs["word_spans"])
    forward = [lambda: MODEL.forward(**inputs)]
    return forward if arg == "n_phones" else forward + [lambda: MODEL.predict(*single)]


def test_valid_batch_runs():
    for call in calls("n_phones", VALID["n_phones"]) + calls("word_spans", VALID["word_spans"]):
        call()


@pytest.mark.parametrize("arg,value,error", PROBES)
def test_probe_inputs_raise_their_error(arg, value, error):
    for call in calls(arg, value):
        with warnings.catch_warnings(), pytest.raises(error):
            warnings.simplefilter("error")
            call()


def _examples(f):
    for arg, value, _ in PROBES:
        f = example(bad=(arg, value))(f)
    return f


@FUZZ
@_examples
@given(bad=st.one_of(FEATURES.map(lambda v: ("feature_rows", v)),
                     IDS.map(lambda v: ("phone_ids", v)),
                     SPANS.map(lambda v: ("word_spans", v)),
                     COUNTS.map(lambda v: ("n_phones", v))))
def test_fuzz_model_inputs(bad):
    for call in calls(*bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call()
            except CaptError:
                pass
