"""Byte-level fuzzing of the file loaders.

Any mutation or truncation of a run config, a corpus line, a feature
container, a model file, a speechocean762 scores.json or the phonological
attribute table either loads or raises a ``CaptError``; no other exception
may escape.  The examples are derandomized, so every run tests the same
inputs.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capt import data as dm
from capt import phonology as ph
from capt.encoder import EncoderConfig
from capt.errors import CaptError
from capt.model import init_model, load_model, save_model

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

INI = b"""[model]
d_model = 8
d_state = 4
n_layers = 1
think_tokens = 2

[training]
alpha = 0.3
lr = 0.002
epochs = 2
"""


def _corpus_and_model_files() -> dict[str, bytes]:
    records, _ = dm.synth_records(2, seed=3, ssl_dim=4)
    model = init_model(EncoderConfig(d_model=4, d_state=2, n_layers=1, n_think=1),
                       feat_dim=5, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dm.save_dataset(records, tmp)
        save_model(model, tmp / "m.capt")
        return {name: (tmp / name).read_bytes()
                for name in (dm.CORPUS_FILE, dm.FEATURE_FILE, "m.capt")}


FILES = _corpus_and_model_files()
FIRST_LINE = FILES[dm.CORPUS_FILE].splitlines(keepends=True)[0]
SCORES_JSON = (b'{"0001": {"accuracy": 8, "completeness": 10.0, "fluency": 9, '
               b'"prosodic": 9, "total": 8, "words": [{"phones": ["K", "AO1"], '
               b'"phones-accuracy": [2.0, 0.4], "accuracy": 6, "stress": 10, '
               b'"total": 6, "mispronunciations": [{"index": 1, "pronounced-phone": "AA"}]}]}}')
TABLE = ph.default_table_text().encode()


def mutated(blob: bytes):
    """``blob`` with one to four bytes replaced, or cut short."""
    n = len(blob)

    def replace(edits):
        b = bytearray(blob)
        for i, v in edits:
            b[i] = v
        return bytes(b)

    edits = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)),
                     min_size=1, max_size=4)
    return st.one_of(edits.map(replace), st.integers(0, n - 1).map(lambda k: blob[:k]))


def loads_or_capt_error(load, *args):
    try:
        load(*args)
    except CaptError:
        pass


@FUZZ
@given(blob=mutated(INI))
def test_fuzz_run_config(tmp_path, blob):
    (tmp_path / "run.ini").write_bytes(blob)
    loads_or_capt_error(dm.load_run_config, tmp_path / "run.ini")


@FUZZ
@given(line=mutated(FIRST_LINE))
def test_fuzz_corpus_line(tmp_path, line):
    (tmp_path / dm.CORPUS_FILE).write_bytes(line)
    (tmp_path / dm.FEATURE_FILE).write_bytes(FILES[dm.FEATURE_FILE])
    loads_or_capt_error(dm.load_dataset, tmp_path)


@FUZZ
@given(blob=mutated(FILES[dm.FEATURE_FILE]))
def test_fuzz_feature_container(tmp_path, blob):
    (tmp_path / dm.CORPUS_FILE).write_bytes(FILES[dm.CORPUS_FILE])
    (tmp_path / dm.FEATURE_FILE).write_bytes(blob)
    loads_or_capt_error(dm.load_dataset, tmp_path)


@FUZZ
@given(blob=mutated(FILES["m.capt"]))
def test_fuzz_model_file(tmp_path, blob):
    (tmp_path / "m.capt").write_bytes(blob)
    loads_or_capt_error(load_model, tmp_path / "m.capt")


@FUZZ
@given(blob=mutated(SCORES_JSON))
def test_fuzz_speechocean_scores(tmp_path, blob):
    # whatever the importer writes, the loader reads
    (tmp_path / "scores.json").write_bytes(blob)
    out = tmp_path / "so"
    shutil.rmtree(out, ignore_errors=True)
    try:
        n = dm.import_speechocean(tmp_path / "scores.json", out)
    except CaptError:
        assert not out.exists()
        return
    records = dm.load_dataset(out)
    assert len(records) == n
    assert all(rec.features.shape == (rec.n_phones, 0) for rec in records)


@FUZZ
@given(index=st.integers(-3, 4) | st.integers(-2**70, 2**70))
def test_fuzz_speechocean_mispronunciation_index(tmp_path, index):
    # the word has 2 phones: an index inside them realizes that phone as AA,
    # any other is an error, never a mispronunciation dropped in silence
    (tmp_path / "scores.json").write_bytes(SCORES_JSON.replace(b'"index": 1',
                                                               b'"index": %d' % index))
    out = tmp_path / "so"
    shutil.rmtree(out, ignore_errors=True)
    try:
        dm.import_speechocean(tmp_path / "scores.json", out)
    except CaptError as e:
        assert not 0 <= index < 2 and not out.exists()
        assert "'words[0].mispronunciations[0].index'" in str(e)
    else:
        realized = [p.realized for p in dm.load_dataset(out)[0].phones]
        assert 0 <= index < 2 and realized[index] == "AA"


@FUZZ
@given(blob=mutated(TABLE))
def test_fuzz_phonology_table(blob):
    # latin-1 maps every byte to one character, so each byte edit is a text edit
    loads_or_capt_error(ph.load_attribute_table, blob.decode("latin-1"))


def test_unmutated_files_load(tmp_path):
    (tmp_path / "run.ini").write_bytes(INI)
    assert dm.load_run_config(tmp_path / "run.ini").encoder.d_model == 8
    for name, blob in FILES.items():
        (tmp_path / name).write_bytes(blob)
    assert len(dm.load_dataset(tmp_path)) == 2
    (tmp_path / "scores.json").write_bytes(SCORES_JSON)
    assert dm.import_speechocean(tmp_path / "scores.json", tmp_path / "so") == 1
    assert dm.load_dataset(tmp_path / "so")[0].features.shape == (2, 0)
    assert ph.load_attribute_table(TABLE.decode("latin-1")).shape == (41, 24)
    assert np.isfinite(load_model(tmp_path / "m.capt").params["enc.l0.fwd.a_raw"].data).all()
