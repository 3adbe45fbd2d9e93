import dataclasses
import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from capt import cli, metrics
from capt import data as dm
from capt.encoder import EncoderConfig
from capt.errors import ConfigError, DatasetError, PersistenceError
from capt.model import init_model, load_model, save_model
from capt.phonology import ARPABET_39, PHONES
from capt.scoring import ASPECTS


def make_record(uid="u0"):
    phones = [
        dm.PhoneEntry("B", "B", 1.8, 0),
        dm.PhoneEntry("AA", "AE", 0.7, 0),
        dm.PhoneEntry("T", "<del>", 0.1, 1),
    ]
    return dm.UtteranceRecord(
        id=uid,
        phones=phones,
        word_scores=[(8.0, 7.0, 8.0), (2.0, 3.0, 2.0)],
        utterance_scores={a: 5.0 for a in
                          ("accuracy", "completeness", "fluency", "prosody", "total")},
        features=np.arange(9.0).reshape(3, 3),
    )


BAD_PHONE = {"canonical": "AA", "realized": "AE", "score": 0.7, "word": 0}  # not a PhoneEntry


# --- record views and validation -------------------------------------------

def test_record_derived_views():
    rec = make_record()
    np.testing.assert_array_equal(rec.canonical_ids(), [6, 0, 30])
    assert rec.realized_ids()[2] == 39  # <del>
    assert rec.word_spans() == [(0, 2), (2, 3)]
    np.testing.assert_allclose(rec.phone_targets_norm(), [0.9, 0.35, 0.05])
    assert rec.word_targets_norm().shape == (2, 3)
    assert rec.utt_targets_norm().shape == (5,)
    np.testing.assert_allclose(rec.utt_targets_norm(), 0.5)


@pytest.mark.parametrize("mutate,field", [
    (lambda r: r.phones.clear(), "phones"),
    (lambda r: setattr(r.phones[0], "canonical", "<del>"), "canonical"),
    (lambda r: setattr(r.phones[0], "realized", "ZZ"), "realized"),
    (lambda r: setattr(r.phones[0], "score", 2.5), "score"),
    (lambda r: setattr(r.phones[2], "word_index", 3), "word"),
    (lambda r: r.word_scores.pop(), "word_scores"),
    (lambda r: r.utterance_scores.pop("fluency"), "utterance_scores"),
    (lambda r: setattr(r, "features", np.zeros((2, 3))), "features"),
    # records built in code: each would be written wrongly, or not read back
    (lambda r: r.utterance_scores.update(Fluency=5.0), "'utterance_scores.Fluency'"),
    (lambda r: setattr(r.phones[2], "word_index", 1.0), "'phones[2].word'"),
    (lambda r: setattr(r, "id", 7), "'id'"),
    (lambda r: setattr(r.phones[2], "word_index", np.int64(1)), "'phones[2].word'"),
    (lambda r: setattr(r, "features", np.arange(3.0)), "'features'"),
    (lambda r: r.utterance_scores.update(total="5"), "'utterance_scores.total'"),
    (lambda r: r.features.__setitem__((1, 2), 1e39), "'features[1][2]'"),  # inf as float32
    (lambda r: r.phones.__setitem__(1, BAD_PHONE), "'phones[1]'"),
    (lambda r: setattr(r, "id", "\ud800x"), "'id': not encodable as UTF-8"),  # lone surrogate
])
def test_validate_record_names_offender(mutate, field):
    rec = make_record("bad-utt")
    mutate(rec)
    with pytest.raises(DatasetError) as e:
        dm.validate_record(rec)
    msg = str(e.value)
    assert repr(rec.id) in msg and field in msg


def test_validate_record_reports_an_unknown_aspect_before_a_bad_value(tmp_path):
    rec = make_record("u-order")
    rec.utterance_scores.update(accuracy="5", zz=5.0)  # the unknown key comes last
    with pytest.raises(DatasetError) as e:
        dm.validate_record(rec)
    assert "'utterance_scores.zz'" in str(e.value) and "not an aspect" in str(e.value)
    dm.save_dataset([make_record("u-order")], tmp_path)
    corpus = tmp_path / dm.CORPUS_FILE
    corpus.write_text(corpus.read_text().replace('"accuracy": 5.0', '"accuracy": "5"')
                      .replace('"total": 5.0}', '"total": 5.0, "zz": 5.0}'))
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    assert "'utterance_scores.zz'" in str(e.value) and "not an aspect" in str(e.value)


# --- feature container and corpus round trip --------------------------------

def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mats = {f"u{i}": rng.normal(size=(int(rng.integers(1, 6)), 4)).astype(np.float32)
            for i in range(5)}
    path = tmp_path / "features.bin"
    dm.write_feature_file(path, mats)
    back = dm.read_feature_file(path)
    assert set(back) == set(mats)
    for k in mats:
        np.testing.assert_array_equal(back[k], mats[k].astype(np.float64))


def test_feature_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "features.bin"
    path.write_bytes(b"NOTAFEATUREFILE!")
    with pytest.raises(DatasetError):
        dm.read_feature_file(path)


def test_feature_file_rejects_duplicate_id(tmp_path):
    path = tmp_path / "features.bin"
    dm.write_feature_file(path, {"a": np.ones((2, 3)), "b": np.zeros((2, 3))})
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"\x01\x00\x00\x00b", b"\x01\x00\x00\x00a"))
    with pytest.raises(DatasetError) as e:
        dm.read_feature_file(path)
    assert str(path) in str(e.value) and "'a'" in str(e.value)


def test_dataset_round_trip(tmp_path):
    records, _ = dm.synth_records(5, seed=1, ssl_dim=8)
    dm.save_dataset(records, tmp_path)
    back = dm.load_dataset(tmp_path)
    assert [r.id for r in back] == [r.id for r in records]
    for a, b in zip(records, back):
        np.testing.assert_array_equal(a.canonical_ids(), b.canonical_ids())
        np.testing.assert_array_equal(a.realized_ids(), b.realized_ids())
        assert a.word_spans() == b.word_spans()
        # features survive the float32 container
        np.testing.assert_allclose(a.features, b.features, atol=1e-6)
        # scores are rounded to 4 decimals on write
        np.testing.assert_allclose(a.phone_targets_norm(), b.phone_targets_norm(),
                                   atol=1e-4)


def scores(hi: float):
    """Scores of every kind a caller might pass: ints, floats and numpy floats."""
    grid = st.integers(0, int(hi * 10**4)).map(lambda k: k / 10**4)
    return st.one_of(st.integers(0, int(hi)), grid, grid.map(np.float64),
                     st.floats(0, hi), st.floats(0, hi, width=32).map(np.float32))


@st.composite
def code_built_records(draw):
    """Records as code builds them, some with an unknown aspect or a feature
    value float32 cannot hold, which validate_record refuses."""
    phones, word_scores = [], []
    for w in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(1, 3))):
            phones.append(dm.PhoneEntry(draw(st.sampled_from(ARPABET_39)),
                                        draw(st.sampled_from(PHONES)),
                                        draw(scores(dm.PHONE_SCORE_MAX)), w))
        word_scores.append(tuple(draw(scores(dm.WORD_SCORE_MAX)) for _ in range(3)))
    utt = {a: draw(scores(dm.UTT_SCORE_MAX)) for a in ASPECTS}
    utt.update(draw(st.dictionaries(st.sampled_from(["Fluency", "prosodic"]),
                                    scores(dm.UTT_SCORE_MAX), max_size=1)))
    values = st.floats(width=32, allow_nan=False, allow_infinity=False) | st.floats(-1e39, 1e39)
    features = draw(hnp.arrays(np.float64, (len(phones), draw(st.integers(1, 3))),
                               elements=values))
    return dm.UtteranceRecord(draw(st.text(max_size=6)), phones, word_scores, utt, features)


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rec=code_built_records())
def test_accepted_records_round_trip(tmp_path, rec):
    try:
        dm.validate_record(rec)
    except DatasetError:
        return
    dm.save_dataset([rec], tmp_path)
    back, = dm.load_dataset(tmp_path)
    assert back.id == rec.id
    # the writer rounds scores to 4 decimals and stores features as float32
    assert back.phones == [dataclasses.replace(p, score=round(p.score, 4)) for p in rec.phones]
    assert back.word_scores == [tuple(round(s, 4) for s in t) for t in rec.word_scores]
    assert back.utterance_scores == {a: round(s, 4) for a, s in rec.utterance_scores.items()}
    np.testing.assert_array_equal(back.features,
                                  rec.features.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("mutate,field", [
    (lambda r: setattr(r, "id", 7), "'id'"),
    (lambda r: setattr(r, "id", "\ud800x"), "'id': not encodable as UTF-8"),
    (lambda r: r.phones.__setitem__(1, BAD_PHONE), "'phones[1]'"),
    (lambda r: setattr(r.phones[2], "word_index", np.int64(1)), "'phones[2].word'"),
    (lambda r: setattr(r, "features", np.arange(3.0)), "'features'"),
    (lambda r: setattr(r, "features", None), "'features'"),
    (lambda r: r.features.__setitem__((2, 1), np.nan), "'features[2][1]'"),
    (lambda r: r.features.__setitem__((0, 2), -np.inf), "'features[0][2]'"),
    (lambda r: r.features.__setitem__((1, 0), 1e39), "'features[1][0]'"),  # inf as float32
])
def test_save_dataset_refuses_a_record_before_writing(tmp_path, mutate, field):
    good, bad = make_record("u-good"), make_record("u-bad")
    mutate(bad)
    out = tmp_path / "corpus"
    with pytest.raises(DatasetError) as e:
        dm.save_dataset([good, bad], out)
    assert repr(bad.id) in str(e.value) and field in str(e.value)
    assert not out.exists()


def test_load_dataset_errors(tmp_path):
    with pytest.raises(DatasetError):
        dm.load_dataset(tmp_path / "nowhere")
    records, _ = dm.synth_records(2, seed=2, ssl_dim=8)
    dm.save_dataset(records, tmp_path)
    (tmp_path / dm.CORPUS_FILE).write_text("")
    with pytest.raises(DatasetError):
        dm.load_dataset(tmp_path)
    (tmp_path / dm.CORPUS_FILE).write_text("{not json\n")
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    assert "line 1" in str(e.value)


def test_load_dataset_takes_only_a_directory(tmp_path):
    records, _ = dm.synth_records(2, seed=2, ssl_dim=8)
    dm.save_dataset(records, tmp_path)
    corpus = tmp_path / dm.CORPUS_FILE
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(corpus)
    assert str(e.value).startswith(f"{corpus}: not a corpus directory")
    assert len(dm.load_dataset(tmp_path)) == 2


def test_load_dataset_rejects_duplicate_ids(tmp_path):
    records, _ = dm.synth_records(2, seed=2, ssl_dim=8)
    dm.save_dataset(records, tmp_path)  # it refuses duplicate ids: write the third line directly
    corpus = tmp_path / dm.CORPUS_FILE
    corpus.write_text(corpus.read_text() + dm._record_to_json(records[0]))
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    msg = str(e.value)
    assert dm.CORPUS_FILE in msg and repr(records[0].id) in msg
    assert "line 3" in msg and "line 1" in msg


def test_save_dataset_refuses_duplicate_ids_before_writing(tmp_path):
    records, _ = dm.synth_records(3, seed=2, ssl_dim=8)
    records[1].id = records[0].id
    out = tmp_path / "corpus"
    with pytest.raises(DatasetError) as e:
        dm.save_dataset(records, out)
    msg = str(e.value)
    assert "duplicate" in msg and repr(records[0].id) in msg
    assert "records[1]" in msg and "records[0]" in msg
    assert not out.exists()


def test_save_dataset_refuses_an_empty_corpus_before_writing(tmp_path):
    out = tmp_path / "corpus"
    with pytest.raises(DatasetError, match="empty corpus"):
        dm.save_dataset([], out)
    assert not out.exists()


def test_load_dataset_rejects_non_finite_features(tmp_path):
    records, _ = dm.synth_records(3, seed=2, ssl_dim=8)
    dm.save_dataset(records, tmp_path)  # it refuses non-finite values: write those directly
    features = tmp_path / dm.FEATURE_FILE
    records[1].features[2, 5] = np.nan
    records[2].features[0, 0] = np.inf
    dm.write_feature_file(features, {r.id: r.features for r in records})
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    msg = str(e.value)
    assert records[1].id in msg and "features[2][5]" in msg and "nan" in msg
    records[1].features[2, 5] = 0.0
    dm.write_feature_file(features, {r.id: r.features for r in records})
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    msg = str(e.value)
    assert records[2].id in msg and "features[0][0]" in msg and "inf" in msg


def test_load_dataset_rejects_an_id_that_is_not_utf8(tmp_path):
    dm.save_dataset([make_record("u0")], tmp_path)
    corpus = tmp_path / dm.CORPUS_FILE
    obj = json.loads(corpus.read_text())
    obj["id"] = "\ud800x"  # JSON escapes it; the line's own features key still finds "u0"
    corpus.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    msg = str(e.value)
    assert str(corpus) in msg and "line 1" in msg and "'id'" in msg and "UTF-8" in msg


@pytest.mark.parametrize("field,value", [
    (None, None),  # a byte that is not UTF-8
    ("utterance_scores", [1, 2]),
    ("features", ["x"]),
    ("id", None),
    ("phones", [{"canonical": ["B"], "realized": "B", "score": 1.0, "word": 0}]),
])
def test_load_dataset_rejects_malformed_line(tmp_path, field, value):
    records, _ = dm.synth_records(2, seed=2, ssl_dim=8)
    dm.save_dataset(records, tmp_path)
    corpus = tmp_path / dm.CORPUS_FILE
    lines = corpus.read_bytes().splitlines(keepends=True)
    if field is None:
        lines[1] = lines[1].replace(b"synth", b"\xffsynth", 1)
    else:
        obj = json.loads(lines[1])
        obj[field] = value
        lines[1] = (json.dumps(obj) + "\n").encode()
    corpus.write_bytes(b"".join(lines))
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    assert str(corpus) in str(e.value) and "line 2" in str(e.value)


def mutated_line_error(tmp_path, path, value) -> str:
    """The DatasetError message of loading record 'u-typed' with the value at
    ``path`` (keys from the top of its corpus line) replaced."""
    rec = make_record("u-typed")
    rec.phones[1].word_index = 1  # words (0, 1, 1)
    dm.save_dataset([rec], tmp_path)
    corpus = tmp_path / dm.CORPUS_FILE
    obj = json.loads(corpus.read_text())
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    corpus.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    msg = str(e.value)
    assert str(corpus) in msg and "line 1" in msg and "'u-typed'" in msg
    return msg


@pytest.mark.parametrize("path,value,field_name", [
    (("phones", 1, "word"), 0.9, "phones[1].word"),  # truncated, it would join word 0
    (("phones", 0, "score"), "1.5", "phones[0].score"),
    (("phones", 0, "score"), True, "phones[0].score"),
    (("word_scores", 1, 0), "2.0", "word_scores[1]"),
    (("utterance_scores", "fluency"), "5", "utterance_scores.fluency"),
])
def test_load_dataset_rejects_values_that_are_not_numbers(tmp_path, path, value, field_name):
    msg = mutated_line_error(tmp_path, path, value)
    assert f"'{field_name}'" in msg and repr(value) in msg


@pytest.mark.parametrize("path,field_name", [
    (("phones", 0, "score"), "phones[0].score"),
    (("word_scores", 1, 2), "word_scores[1]"),
    (("utterance_scores", "fluency"), "utterance_scores.fluency"),
])
def test_load_dataset_rejects_integer_score_too_large_for_a_float(tmp_path, path, field_name):
    msg = mutated_line_error(tmp_path, path, 10**400)
    assert f"'{field_name}'" in msg and "too large for a float" in msg


@pytest.mark.parametrize("key", ["Fluency", "prosodic"])
def test_load_dataset_rejects_unknown_aspect(tmp_path, key):
    # save_dataset writes only the five aspects, so the key would be lost
    msg = mutated_line_error(tmp_path, ("utterance_scores", key), 5.0)
    assert f"'utterance_scores.{key}'" in msg and "not an aspect" in msg


def test_load_dataset_corpus_file_is_a_directory(tmp_path):
    dm.save_dataset([make_record()], tmp_path)
    corpus = tmp_path / dm.CORPUS_FILE
    corpus.unlink()
    corpus.mkdir()
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    assert str(e.value).startswith(f"{corpus}: cannot read corpus file")


def test_load_dataset_reads_integer_scores_as_floats(tmp_path):
    dm.save_dataset([make_record()], tmp_path)
    corpus = tmp_path / dm.CORPUS_FILE
    obj = json.loads(corpus.read_text())
    obj["phones"][0]["score"] = 2
    obj["word_scores"][0] = [8, 7, 8]
    obj["utterance_scores"]["total"] = 5
    corpus.write_text(json.dumps(obj) + "\n")
    rec = dm.load_dataset(tmp_path)[0]
    assert type(rec.phones[0].score) is float and rec.phones[0].score == 2.0
    assert rec.word_scores[0] == (8.0, 7.0, 8.0) and type(rec.word_scores[0][0]) is float
    assert type(rec.utterance_scores["total"]) is float


def test_load_dataset_rejects_deeply_nested_line(tmp_path):
    # json's decoder recurses once per level and raises RecursionError
    records, _ = dm.synth_records(2, seed=2, ssl_dim=8)
    dm.save_dataset(records, tmp_path)
    corpus = tmp_path / dm.CORPUS_FILE
    first = corpus.read_bytes().splitlines(keepends=True)[0]
    corpus.write_bytes(first + b"[" * 100_000 + b"\n")
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    assert str(corpus) in str(e.value) and "line 2" in str(e.value)



@pytest.mark.parametrize("all_phones", [True, False], ids=["every_phone", "first_phone"])
def test_load_dataset_rejects_first_phone_outside_word_0(tmp_path, all_phones):
    records, _ = dm.synth_records(3, seed=2, ssl_dim=8)
    dm.save_dataset(records, tmp_path)
    corpus = tmp_path / dm.CORPUS_FILE
    lines = corpus.read_text().splitlines(keepends=True)
    obj = json.loads(lines[1])
    if all_phones:  # a consistent record of one word numbered -1, with no word scores
        for p in obj["phones"]:
            p["word"] = -1
        obj["word_scores"] = []
    else:
        obj["phones"][0]["word"] = -1
    lines[1] = json.dumps(obj) + "\n"
    corpus.write_text("".join(lines))
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    msg = str(e.value)
    assert str(corpus) in msg and "line 2" in msg and repr(records[1].id) in msg
    assert "'phones[0].word'" in msg


# --- synthetic generator ----------------------------------------------------

def test_synth_records_planted_rule_consistency():
    records, meta = dm.synth_records(20, seed=3, ssl_dim=8)
    assert meta["n_phones"] == sum(r.n_phones for r in records)
    assert 0.02 < meta["bayes_phone_mse"] < 0.04  # Var(U(-0.3, 0.3)) = 0.03
    for rec in records:
        # gop column encodes quality exactly: q = gop/2.5 + 1
        q = rec.features[:, 0] / 2.5 + 1.0
        assert ((q > 0.149) & (q < 0.851)).all()
        canon = rec.canonical_ids()
        real = rec.realized_ids()
        # realization policy is a deterministic function of q
        assert (real[q >= 0.4] == canon[q >= 0.4]).all()
        mid = (q >= 0.2) & (q < 0.4)
        assert (real[mid] != canon[mid]).all()
        assert (real[q < 0.2] == 39).all()  # <del>
        # scores are 2q plus bounded noise
        raw = np.array([p.score for p in rec.phones])
        assert np.abs(raw - 2.0 * q).max() < 0.301


def test_synth_determinism_and_seed_sensitivity():
    a1, m1 = dm.synth_records(4, seed=5, ssl_dim=8)
    a2, _ = dm.synth_records(4, seed=5, ssl_dim=8)
    b, _ = dm.synth_records(4, seed=6, ssl_dim=8)
    for x, y in zip(a1, a2):
        np.testing.assert_array_equal(x.features, y.features)
    assert not np.array_equal(a1[0].features, b[0].features)
    with pytest.raises(DatasetError):
        dm.synth_records(0, seed=0)


# --- run config -------------------------------------------------------------

def test_load_run_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[model]\nd_model = 24\nn_layers = 3\nthink_tokens = 6\n"
        "[training]\nlr = 0.005\nepochs = 12\n"
    )
    cfg = dm.load_run_config(path)
    assert cfg.encoder.d_model == 24
    assert cfg.encoder.n_layers == 3
    assert cfg.encoder.n_think == 6
    assert cfg.training.lr == 0.005
    assert cfg.training.epochs == 12


def test_documented_run_config_loads(tmp_path):
    # the INI block of docs/formats.md, read by the loader, gives exactly the
    # values it shows, and it shows every key the loader knows
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "run.ini"
    path.write_text(block)
    cfg = dm.load_run_config(path)
    shown, section = {}, None
    for line in block.splitlines():
        if m := re.fullmatch(r"\[(\w+)\]", line.strip()):
            section = m.group(1)
        elif "=" in line and not line.lstrip().startswith((";", "#")):
            key, value = (part.strip() for part in line.split("=", 1))
            shown[section, key] = value
    expected = {(sec, key) for sec, (_, keys) in dm._INI_KEYS.items() for key in keys}
    assert set(shown) == expected
    for (sec, key), value in shown.items():
        attr, keys = dm._INI_KEYS[sec]
        got = getattr(getattr(cfg, attr), keys[key])
        assert got == type(got)(value), (sec, key)


def test_ini_keys_match_config_fields():
    # every config field has exactly one INI key and every key sets a field
    cfg = dm.RunConfig()
    assert [attr for attr, _ in dm._INI_KEYS.values()] == [f.name for f in dataclasses.fields(cfg)]
    for (attr, keys), n in zip(dm._INI_KEYS.values(), (5, 5)):
        fields = [f.name for f in dataclasses.fields(getattr(cfg, attr))]
        assert len(fields) == len(keys) == n
        assert sorted(keys.values()) == sorted(fields)


def test_load_run_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        dm.load_run_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nd_model = many\n")
    with pytest.raises(ConfigError):
        dm.load_run_config(bad)
    bad.write_text("[training]\nalpha = 7\n")
    with pytest.raises(ConfigError):
        dm.load_run_config(bad)


@pytest.mark.parametrize("text", [
    b"d_model = 8\n[model]\n",  # a key before any section
    b"[model]\nd_model = 8\nd_model = 9\n",  # a repeated key
    b"[model]\nd_model\n",  # a line without '='
    b"[model]\nd_model = 8\xff\n",  # not UTF-8
    b"[model]\nd_model = 8\n[model]\n",  # a repeated section
    b"[training]\nlr = 50%\n",  # no interpolation syntax
    b"[training]\nlr = nan\n",
])
def test_load_run_config_malformed_files(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_bytes(text)
    with pytest.raises(ConfigError) as e:
        dm.load_run_config(path)
    assert str(path) in str(e.value)


@pytest.mark.parametrize("text,names", [
    ("[model]\nthink_token = 9\n", ["[model]", "'think_token'"]),
    ("[trianing]\nepochs = 3\n", ["[trianing]"]),
    ("[data]\ntrain = /tmp/train\n", ["[data]"]),
    ("[training]\noptimizer = adam\n", ["[training]", "'optimizer'"]),
    # widths derived from d_model: 2 * d_model inner, d_model // 2 pooler
    ("[model]\nexpand = 2\n", ["[model]", "'expand'"]),
    ("[model]\nd_attn = 0\n", ["[model]", "'d_attn'"]),
    # configparser would merge [DEFAULT] into every other section
    ("[DEFAULT]\nd_model = 8\n", ["[DEFAULT]"]),
    ("[DEFAULT]\nepochs = 3\n[training]\nlr = 0.1\n", ["[DEFAULT]"]),
    ("[DEFAULT]\nepochs = 3\n[model]\nd_model = 8\n", ["[DEFAULT]"]),
])
def test_load_run_config_rejects_unknown_names(tmp_path, text, names):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as e:
        dm.load_run_config(path)
    for name in [str(path)] + names:
        assert name in str(e.value)


@pytest.mark.parametrize("line,named", [
    # init_model would ask for ~47 billion GB; the limit is checked first
    ("d_model = 1000000000", ["d_model 1000000000", "MAX_PARAMS"]),
    # counted from one layer's entries, without listing a billion layers
    ("n_layers = 1000000000", ["n_layers 1000000000", "MAX_PARAMS"]),
])
def test_load_run_config_rejects_bad_model_size(tmp_path, line, named):
    path = tmp_path / "run.ini"
    path.write_text(f"[model]\n{line}\n")
    with pytest.raises(ConfigError) as e:
        dm.load_run_config(path)
    for name in [str(path)] + named:
        assert name in str(e.value)


# --- speechocean importer ---------------------------------------------------

SPEECHOCEAN = {
    "000010011": {
        "accuracy": 8, "completeness": 10.0, "fluency": 9,
        "prosodic": 9, "total": 8,
        "words": [
            {"phones": ["W", "IY0"], "phones-accuracy": [2.0, 1.8],
             "accuracy": 10, "stress": 10, "total": 10,
             "mispronunciations": []},
            {"phones": ["K", "AO1", "L"], "phones-accuracy": [2.0, 0.4, 2.0],
             "accuracy": 6, "stress": 10, "total": 6,
             "mispronunciations": [{"index": 1, "pronounced-phone": "AA"}]},
        ],
    },
    "000010012": {
        "accuracy": 5, "completeness": 10, "fluency": 5, "prosodic": 5,
        "total": 5,
        "words": [{"phones": ["<unk>"], "phones-accuracy": [0.0]}],
    },
}


def test_import_speechocean(tmp_path):
    src = tmp_path / "scores.json"
    src.write_text(json.dumps(SPEECHOCEAN))
    out = tmp_path / "corpus.jsonl"
    n = dm.import_speechocean(src, out)
    assert n == 1  # the <unk>-canonical utterance is skipped
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["id"] == "000010011"
    assert [p["canonical"] for p in rec["phones"]] == ["W", "IY", "K", "AO", "L"]
    assert rec["phones"][3]["realized"] == "AA"
    assert rec["utterance_scores"]["prosody"] == 9.0


def import_error(tmp_path, content: bytes) -> str:
    """The DatasetError message of importing ``content``; nothing is written."""
    src = tmp_path / "scores.json"
    src.write_bytes(content)
    out = tmp_path / "corpus.jsonl"
    with pytest.raises(DatasetError) as e:
        dm.import_speechocean(src, out)
    assert not out.exists()
    msg = str(e.value)
    assert str(src) in msg
    return msg


def mutated_speechocean(path, value):
    """SPEECHOCEAN with the value at ``path`` (keys from the top) replaced."""
    raw = json.loads(json.dumps(SPEECHOCEAN))
    node = raw["000010011"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(raw).encode()


def test_import_speechocean_unreadable_or_malformed_file(tmp_path):
    with pytest.raises(DatasetError) as e:
        dm.import_speechocean(tmp_path / "missing.json", tmp_path / "corpus.jsonl")
    assert "missing.json" in str(e.value)
    assert "cannot read" in str(e.value)
    assert "not a UTF-8 JSON" in import_error(tmp_path, b'{"000010011": {"words": [}')
    assert "not a UTF-8 JSON" in import_error(tmp_path, b'{"\xff": {}}')
    assert "not a UTF-8 JSON" in import_error(tmp_path, b'{"u": ' + b"[" * 100_000)


def test_import_speechocean_top_level_not_an_object(tmp_path):
    assert "top level is a list" in import_error(tmp_path, b"[1, 2]")
    msg = import_error(tmp_path, b'{"000010011": [1]}')
    assert "'000010011'" in msg and "not an object" in msg


@pytest.mark.parametrize("path,field_name", [
    (("words",), "words"),
    (("words", 0, "phones"), "words[0].phones"),
    (("words", 1, "mispronunciations"), "words[1].mispronunciations"),
])
def test_import_speechocean_field_not_a_list(tmp_path, path, field_name):
    # a string is not iterated character by character
    msg = import_error(tmp_path, mutated_speechocean(path, "AH"))
    assert "'000010011'" in msg and f"'{field_name}'" in msg and "not a list" in msg


SCORE_FIELDS = [
    (("words", 1, "phones-accuracy", 1), "words[1].phones-accuracy"),
    (("words", 0, "stress"), "words[0].stress"),
    (("accuracy",), "accuracy"),
    (("prosodic",), "prosodic"),
]
INDEX_FIELD = (("words", 1, "mispronunciations", 0, "index"),
               "words[1].mispronunciations[0].index")


@pytest.mark.parametrize("path,field_name,value", [
    *((p, f, v) for p, f in SCORE_FIELDS for v in ("0.4", None, True, float("nan"))),
    *((*INDEX_FIELD, v) for v in ("1", True, 1.0)),
])
def test_import_speechocean_non_numeric_score(tmp_path, path, field_name, value):
    msg = import_error(tmp_path, mutated_speechocean(path, value))
    assert "'000010011'" in msg and f"'{field_name}'" in msg


@pytest.mark.parametrize("value", [3, -1, 10**30])
def test_import_speechocean_index_outside_word(tmp_path, value):
    # word 1 has 3 phones: no realization may be lost in silence
    msg = import_error(tmp_path, mutated_speechocean(INDEX_FIELD[0], value))
    assert "'000010011'" in msg and f"'{INDEX_FIELD[1]}'" in msg
    assert f"{value} is outside the word's 3 phones" in msg


def test_import_speechocean_mispronunciation_without_index(tmp_path):
    # skipping it would lose the realization and record the phone as correct
    raw = json.loads(json.dumps(SPEECHOCEAN))
    del raw["000010011"]["words"][1]["mispronunciations"][0]["index"]
    msg = import_error(tmp_path, json.dumps(raw).encode())
    assert "'000010011'" in msg and f"'{INDEX_FIELD[1]}'" in msg and "missing" in msg


PRONOUNCED_FIELD = (("words", 1, "mispronunciations", 0, "pronounced-phone"),
                    "words[1].mispronunciations[0].pronounced-phone")


@pytest.mark.parametrize("value,reason", [
    (5, "5 is not a phone"),
    (["AA"], "['AA'] is not a phone"),
    ("XX", "'XX' is not a phone"),
    (None, "missing"),
])
def test_import_speechocean_pronounced_phone_not_a_phone(tmp_path, value, reason):
    # recording it as <unk> would lose the annotated realization in silence
    msg = import_error(tmp_path, mutated_speechocean(PRONOUNCED_FIELD[0], value))
    assert "'000010011'" in msg and f"'{PRONOUNCED_FIELD[1]}'" in msg and reason in msg


def test_import_speechocean_pronounced_phone_missing(tmp_path):
    raw = json.loads(json.dumps(SPEECHOCEAN))
    del raw["000010011"]["words"][1]["mispronunciations"][0]["pronounced-phone"]
    msg = import_error(tmp_path, json.dumps(raw).encode())
    assert "'000010011'" in msg and f"'{PRONOUNCED_FIELD[1]}'" in msg and "missing" in msg


@pytest.mark.parametrize("value", ["<DEL>", "<Del>"])
def test_import_speechocean_deletion_in_any_case(tmp_path, value):
    # a deletion is a deletion in any letter case, not a noncategorizable <unk>
    src, out = tmp_path / "scores.json", tmp_path / "corpus.jsonl"
    src.write_bytes(mutated_speechocean(PRONOUNCED_FIELD[0], value))
    assert dm.import_speechocean(src, out) == 1
    assert json.loads(out.read_text())["phones"][3]["realized"] == "<del>"


UNK_WORD = {"phones": ["<unk>"], "phones-accuracy": [0.0]}
UNSCORED_WORD = {"phones": ["K"], "phones-accuracy": [2.0], "stress": 10, "total": 10}


def test_import_speechocean_skips_before_reading_scores(tmp_path):
    # the <unk> word skips the utterance in either word order, so the score
    # its other word lacks is never read
    src, out = tmp_path / "scores.json", tmp_path / "corpus.jsonl"
    for words in ([UNK_WORD, UNSCORED_WORD], [UNSCORED_WORD, UNK_WORD]):
        src.write_text(json.dumps({"u1": {"words": words}}))
        assert dm.import_speechocean(src, out) == 0
        assert out.read_text() == ""


def test_import_speechocean_checks_every_word_before_a_skip(tmp_path):
    bad = {"phones": ["K", 5], "phones-accuracy": [2.0, 2.0]}
    for wi, words in enumerate(([bad, UNK_WORD], [UNK_WORD, bad])):
        msg = import_error(tmp_path, json.dumps({"u1": {"words": words}}).encode())
        assert "'u1'" in msg and f"'words[{wi}].phones[1]'" in msg


def test_import_speechocean_word_without_phones(tmp_path):
    # its phone-less word would shift the next word's index: a line load_dataset rejects
    raw = json.loads(json.dumps(SPEECHOCEAN))
    raw["000010011"]["words"][0]["phones"] = []
    del raw["000010011"]["words"][0]["phones-accuracy"]
    msg = import_error(tmp_path, json.dumps(raw).encode())
    assert "'000010011'" in msg and "'words[0].phones'" in msg


def test_import_speechocean_canonical_not_a_phone(tmp_path):
    # skipping the utterance would shrink the corpus in silence
    msg = import_error(tmp_path, mutated_speechocean(("words", 1, "phones", 1), "QQ"))
    assert "'000010011'" in msg and "'words[1].phones[1]'" in msg and "'QQ'" in msg


@pytest.mark.parametrize("path,field_name", [
    (("words", 1, "phones-accuracy"), "words[1].phones-accuracy"),
    (("words", 0, "accuracy"), "words[0].accuracy"),
    (("words", 1, "stress"), "words[1].stress"),
    (("words", 0, "total"), "words[0].total"),
    (("fluency",), "fluency"),
    (("prosodic",), "prosody"),  # neither prosodic nor prosody is given
])
def test_import_speechocean_missing_score(tmp_path, path, field_name):
    # a default would train an annotation gap as a perfect or a zero score
    raw = json.loads(json.dumps(SPEECHOCEAN))
    node = raw["000010011"]
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    msg = import_error(tmp_path, json.dumps(raw).encode())
    assert "'000010011'" in msg and f"'{field_name}'" in msg and "missing" in msg


def test_import_speechocean_score_count_mismatch(tmp_path):
    msg = import_error(tmp_path, mutated_speechocean(("words", 1, "phones-accuracy"), [2.0]))
    assert "'words[1].phones-accuracy'" in msg and "3 scores" in msg


# --- CLI --------------------------------------------------------------------

def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_synth_train_eval_score(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, out, _ = run_cli(["synth", "--n", "12", "--seed", "7",
                            "--out", str(corpus), "--ssl-dim", "8"], capsys)
    assert code == 0
    meta = json.loads(out)
    assert meta["n_utterances"] == 12
    assert (corpus / "corpus.jsonl").exists()
    assert (corpus / "features.bin").exists()
    assert (corpus / "corpus_meta.json").exists()

    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nd_model = 16\nd_state = 4\nn_layers = 1\n"
                   "think_tokens = 2\n"
                   "[training]\nepochs = 2\nbatch_size = 6\nlr = 0.002\n")
    model_path = tmp_path / "model.capt"
    code, out, _ = run_cli(["train", "--config", str(ini), "--data", str(corpus),
                            "--out", str(model_path)], capsys)
    assert code == 0
    assert model_path.exists()
    log = tmp_path / "model.capt.loss.csv"
    assert log.exists()
    assert len(log.read_text().strip().splitlines()) == 3

    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(["eval", "--model", str(model_path),
                            "--data", str(corpus), "--out", str(report_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["n_utterances"] == 12
    assert json.loads(report_path.read_text()) == report
    assert report.pop("wall_s") > 0 and report.pop("utts_per_s") > 0
    # the rest is the report's own text, as metrics.evaluate writes it
    direct = metrics.evaluate(load_model(model_path), dm.load_dataset(corpus))
    assert report == json.loads(direct.to_text())

    some_id = json.loads((corpus / "corpus.jsonl").read_text().splitlines()[0])["id"]
    code, out, _ = run_cli(["score", "--model", str(model_path),
                            "--data", str(corpus), "--id", some_id], capsys)
    assert code == 0
    pred = json.loads(out)
    assert pred["id"] == some_id
    assert len(pred["phone_scores"]) == len(pred["mdd_predicted"])


def test_cli_errors_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(["eval", "--model", str(tmp_path / "missing.capt"),
                            "--data", str(tmp_path)], capsys)
    assert code == 1
    assert "error:" in err
    with pytest.raises(SystemExit) as e:
        cli.main(["synth"])  # missing required args
    assert e.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "m.capt", "--data", "c", "--seed", "1"],
    ["score", "--model", "m.capt", "--data", "c", "--id", "u", "--config", "x.ini"],
    ["synth", "--n", "2", "--out", "c", "--config", "x.ini"],
    ["train", "--data", "c", "--out", "m.capt", "--seed", "1"],
    ["gradcheck", "--seed", "1"],
    ["synth", "--n", "2", "--out", "c", "--rule-seed", "1"],
], ids=["eval_seed", "score_config", "synth_config", "train_seed", "gradcheck_seed",
        "synth_rule_seed"])
def test_cli_rejects_flags_a_command_does_not_read(capsys, argv):
    # eval and score load a saved model: no run config or seed applies;
    # train and gradcheck take their seed from the run config's [training] seed;
    # synth reads a generator seed and sizes, no run config
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["train", "--config", "{ini}", "--data", "{tmp}", "--out", "{tmp}/m.capt"], "seed"),
    (["synth", "--n", "2", "--out", "{tmp}/c", "--seed", "-1"], "seed"),
    (["synth", "--n", "2", "--out", "{tmp}/c", "--ssl-dim", "-1"], "ssl_dim"),
], ids=["train_ini_seed", "synth_seed", "synth_ssl_dim"])
def test_cli_rejects_negative_seed_or_size(tmp_path, capsys, argv, named):
    ini = tmp_path / "run.ini"
    ini.write_text("[training]\nseed = -1\n")
    code, _, err = run_cli([a.format(ini=ini, tmp=tmp_path) for a in argv], capsys)
    assert code == 1
    assert err.startswith("error:") and f"{named} -1" in err


def test_cli_score_unknown_id(tmp_path, capsys):
    corpus = tmp_path / "c"
    run_cli(["synth", "--n", "2", "--seed", "1", "--out", str(corpus),
             "--ssl-dim", "8"], capsys)
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nd_model = 8\nd_state = 4\nn_layers = 1\n"
                   "[training]\nepochs = 1\n")
    model_path = tmp_path / "m.capt"
    run_cli(["train", "--config", str(ini), "--data", str(corpus),
             "--out", str(model_path)], capsys)
    code, _, err = run_cli(["score", "--model", str(model_path),
                            "--data", str(corpus), "--id", "nope"], capsys)
    assert code == 1 and "nope" in err and str(corpus) in err


def test_cli_gradcheck_overfit_zero_fails_before_the_suite(capsys):
    # 0 reaches overfit_sanity's size check; the harness runs before the suite
    code, out, err = run_cli(["gradcheck", "--overfit", "0"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "at least 1 utterance" in err


@pytest.fixture
def narrow_corpus_and_model(tmp_path, capsys):
    """A corpus with 1-wide features and a saved model expecting 5."""
    corpus = tmp_path / "narrow"
    run_cli(["synth", "--n", "2", "--seed", "1", "--out", str(corpus), "--ssl-dim", "0"], capsys)
    model_path = tmp_path / "m.capt"
    save_model(init_model(EncoderConfig(d_model=4, d_state=2, n_layers=1, n_think=1),
                          feat_dim=5, seed=0), model_path)
    first = json.loads((corpus / "corpus.jsonl").read_text().splitlines()[0])["id"]
    return corpus, model_path, first


@pytest.mark.parametrize("command", ["eval", "score"])
def test_cli_names_both_files_on_feature_width_mismatch(narrow_corpus_and_model, capsys,
                                                        command):
    corpus, model_path, first = narrow_corpus_and_model
    argv = [command, "--model", str(model_path), "--data", str(corpus)]
    code, out, err = run_cli(argv + (["--id", first] if command == "score" else []), capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    for name in (str(corpus), str(model_path), repr(first), "1 wide", "feat_dim is 5"):
        assert name in err


def test_save_dataset_unwritable_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(DatasetError) as e:
        dm.save_dataset([make_record()], blocker / "corpus")
    assert str(blocker / "corpus") in str(e.value)


def test_synth_corpus_unwritable_meta(tmp_path):
    (tmp_path / dm.META_FILE).mkdir()  # the metadata path is taken by a directory
    with pytest.raises(DatasetError) as e:
        dm.synth_corpus(2, seed=1, out_dir=tmp_path, ssl_dim=2)
    assert str(tmp_path / dm.META_FILE) in str(e.value)


@pytest.mark.parametrize("argv", [
    ["train", "--config", "{ini}", "--data", "{corpus}", "--out", "{model}", "--log", "{bad}"],
    ["train", "--config", "{ini}", "--data", "{corpus}", "--out", "{bad}"],
    ["train", "--config", "{ini}", "--data", "{corpus}", "--out", "{bad}", "--log", "{tmp}/ok.csv"],
    ["eval", "--model", "{model}", "--data", "{corpus}", "--out", "{bad}"],
    ["synth", "--n", "2", "--out", "{bad}"],
], ids=["train_log", "train_out", "train_out_log_ok", "eval_out", "synth_out"])
def test_cli_unwritable_output_names_the_path(tmp_path, capsys, argv):
    corpus = tmp_path / "c"
    run_cli(["synth", "--n", "2", "--seed", "1", "--out", str(corpus), "--ssl-dim", "2"], capsys)
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nd_model = 4\nd_state = 2\nn_layers = 1\n[training]\nepochs = 1\n")
    model_path = tmp_path / "m.capt"
    run_cli(["train", "--config", str(ini), "--data", str(corpus), "--out", str(model_path)],
            capsys)
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = str(blocker / "out")  # a path under a regular file
    argv = [a.format(ini=ini, corpus=corpus, tmp=tmp_path, model=model_path, bad=bad)
            for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1 and bad in err
    # the paths are tried before the first epoch or evaluation
    assert out == "" and not (tmp_path / "ok.csv").exists()
    if argv[0] == "train":  # a failed run leaves no model that loads
        with pytest.raises(PersistenceError):
            load_model(argv[argv.index("--out") + 1])


@pytest.fixture
def small_run(tmp_path, capsys):
    """A 2-utterance corpus, an INI for a 1-epoch tiny model, and that model trained."""
    corpus = tmp_path / "c"
    run_cli(["synth", "--n", "2", "--seed", "1", "--out", str(corpus), "--ssl-dim", "2"], capsys)
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nd_model = 4\nd_state = 2\nn_layers = 1\n[training]\nepochs = 1\n")
    model_path = tmp_path / "m.capt"
    run_cli(["train", "--config", str(ini), "--data", str(corpus), "--out", str(model_path)],
            capsys)
    return {"tmp": tmp_path, "corpus": corpus, "ini": ini, "model": model_path}


@pytest.mark.parametrize("argv,victim,options", [
    # the model through another spelling of its path: paths compare resolved
    (["eval", "--model", "{model}", "--data", "{corpus}", "--out", "{corpus}/../m.capt"],
     "{model}", ("--out", "--model")),
    (["eval", "--model", "{model}", "--data", "{corpus}", "--out", "{corpus}/corpus.jsonl"],
     "{corpus}/corpus.jsonl", ("--out", "--data")),
    (["eval", "--model", "{model}", "--data", "{corpus}", "--out", "{corpus}/features.bin"],
     "{corpus}/features.bin", ("--out", "--data")),
    (["train", "--config", "{ini}", "--data", "{corpus}", "--out", "{tmp}/x", "--log", "{tmp}/x"],
     "{tmp}/x", ("--log", "--out")),
    (["train", "--config", "{ini}", "--data", "{corpus}", "--out", "{corpus}/corpus.jsonl"],
     "{corpus}/corpus.jsonl", ("--out", "--data")),
    (["train", "--config", "{ini}", "--data", "{corpus}", "--out", "{tmp}/n.capt",
      "--log", "{corpus}/features.bin"], "{corpus}/features.bin", ("--log", "--data")),
    (["train", "--config", "{ini}", "--data", "{corpus}", "--out", "{ini}"],
     "{ini}", ("--out", "--config")),
], ids=["eval_out_model", "eval_out_corpus", "eval_out_features", "train_log_out",
        "train_out_corpus", "train_log_features", "train_out_config"])
def test_cli_refuses_an_output_that_names_an_input(small_run, capsys, argv, victim, options):
    (small_run["tmp"] / "x").write_text("a loss log of an earlier run\n")
    argv = [a.format(**small_run) for a in argv]
    victim = Path(victim.format(**small_run))
    before = victim.read_bytes()
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(victim.resolve()) in err and all(option in err for option in options)
    assert victim.read_bytes() == before
    assert not (small_run["tmp"] / "n.capt").exists()  # refused before any work


def test_cli_train_reports_an_unwritable_loss_log(small_run, capsys):
    if not Path("/dev/full").exists():
        pytest.skip("no /dev/full, a device whose writes fail")
    argv = ["train", "--config", str(small_run["ini"]), "--data", str(small_run["corpus"]),
            "--out", str(small_run["tmp"] / "n.capt"), "--log", "/dev/full"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: /dev/full: cannot write loss log:") and err.count("\n") == 1


def test_cli_train_creates_the_output_directory(small_run, capsys):
    model_path = small_run["tmp"] / "new_dir" / "m.capt"
    argv = ["train", "--config", str(small_run["ini"]), "--data", str(small_run["corpus"]),
            "--out", str(model_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    load_model(model_path)
    assert (small_run["tmp"] / "new_dir" / "m.capt.loss.csv").read_text().count("\n") == 2


def test_load_run_config_on_a_directory_names_the_reason(tmp_path):
    with pytest.raises(ConfigError) as e:
        dm.load_run_config(tmp_path)
    assert str(e.value).startswith(f"{tmp_path}: cannot read config file: ")
    assert os.strerror(errno.EISDIR) in str(e.value)
