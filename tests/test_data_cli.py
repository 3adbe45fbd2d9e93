import json
import re
from pathlib import Path

import numpy as np
import pytest

from capt import cli
from capt import data as dm
from capt.errors import ConfigError, DatasetError


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
])
def test_validate_record_names_offender(mutate, field):
    rec = make_record("bad-utt")
    mutate(rec)
    with pytest.raises(DatasetError) as e:
        dm.validate_record(rec)
    msg = str(e.value)
    assert "bad-utt" in msg and field in msg


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


def test_load_dataset_rejects_duplicate_ids(tmp_path):
    records, _ = dm.synth_records(2, seed=2, ssl_dim=8)
    dm.save_dataset([records[0], records[1], records[0]], tmp_path)
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    msg = str(e.value)
    assert dm.CORPUS_FILE in msg and repr(records[0].id) in msg
    assert "line 3" in msg and "line 1" in msg


def test_load_dataset_rejects_non_finite_features(tmp_path):
    records, _ = dm.synth_records(3, seed=2, ssl_dim=8)
    records[1].features[2, 5] = np.nan
    records[2].features[0, 0] = np.inf
    dm.save_dataset(records, tmp_path)
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    msg = str(e.value)
    assert records[1].id in msg and "features[2][5]" in msg and "nan" in msg
    records[1].features[2, 5] = 0.0
    dm.save_dataset(records, tmp_path)
    with pytest.raises(DatasetError) as e:
        dm.load_dataset(tmp_path)
    msg = str(e.value)
    assert records[2].id in msg and "features[0][0]" in msg and "inf" in msg


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
        "[training]\nlr = 0.005\nepochs = 12\noptimizer = sgd\n"
    )
    cfg = dm.load_run_config(path)
    assert cfg.encoder.d_model == 24
    assert cfg.encoder.n_layers == 3
    assert cfg.encoder.n_think == 6
    assert cfg.training.lr == 0.005
    assert cfg.training.epochs == 12
    assert cfg.training.optimizer == "sgd"


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
    b"[training]\noptimizer = 50%\n",  # no interpolation syntax
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
    ("d_attn = -5", ["d_attn -5"]),  # was read as d_model // 2
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
    assert report["wall_s"] > 0 and report["utts_per_s"] > 0
    assert json.loads(report_path.read_text()) == report

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


@pytest.mark.parametrize("argv,named", [
    (["train", "--config", "{ini}", "--data", "{tmp}", "--out", "{tmp}/m.capt"], "seed"),
    (["synth", "--n", "2", "--out", "{tmp}/c", "--seed", "-1"], "seed"),
    (["gradcheck", "--seed", "-1"], "seed"),
    (["synth", "--n", "2", "--out", "{tmp}/c", "--rule-seed", "-1"], "rule_seed"),
    (["synth", "--n", "2", "--out", "{tmp}/c", "--ssl-dim", "-1"], "ssl_dim"),
], ids=["train_ini_seed", "synth_seed", "gradcheck_seed", "synth_rule_seed", "synth_ssl_dim"])
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
    assert code == 1 and "nope" in err
