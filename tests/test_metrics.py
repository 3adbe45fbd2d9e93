import numpy as np
import pytest

from capt import metrics as mx
from capt.data import synth_records
from capt.encoder import EncoderConfig
from capt.errors import AlignmentError, CaptError, ContractError, InventoryError, NumericError
from capt.model import init_model
from capt.phonology import DEL, DEL_ID


# --- PCC --------------------------------------------------------------------

def test_pcc_perfect_and_inverse():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert abs(mx.pcc(x, 2 * x + 1) - 1.0) < 1e-12
    assert abs(mx.pcc(x, -x) + 1.0) < 1e-12


def test_pcc_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        dx, dy = x - x.mean(), y - y.mean()
        expect = (dx * dy).sum() / np.sqrt((dx**2).sum() * (dy**2).sum())
        assert abs(mx.pcc(x, y) - expect) < 1e-10


def test_pcc_constant_input_raises():
    with pytest.raises(mx.ConstantInputError):
        mx.pcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(mx.ConstantInputError):
        mx.pcc([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_pcc_contracts():
    with pytest.raises(ContractError):
        mx.pcc([1.0], [2.0])
    with pytest.raises(ContractError):
        mx.pcc([1.0, 2.0], [1.0, 2.0, 3.0])


# --- MDD confusion ----------------------------------------------------------

def test_confusion_enumerated_cases():
    # canonical, annotated, predicted -> single-cell outcomes
    cases = [
        ((3,), (3,), (3,), dict(ta=1)),
        ((3,), (3,), (4,), dict(fr=1)),
        ((3,), (4,), (3,), dict(fa=1)),
        ((3,), (4,), (5,), dict(tr=1)),         # rejected, wrong diagnosis
        ((3,), (4,), (4,), dict(tr=1, cd=1)),   # rejected, correct diagnosis
        ((3,), (DEL_ID,), (3,), dict(fa=1)),    # deletion missed
        ((3,), (DEL_ID,), (DEL_ID,), dict(tr=1, cd=1)),
    ]
    for c, a, p, want in cases:
        conf = mx.mdd_confusion(c, a, p)
        got = {k: getattr(conf, k) for k in ("ta", "fr", "fa", "tr", "cd")}
        expect = {k: want.get(k, 0) for k in got}
        assert got == expect, (c, a, p)


def test_confusion_brute_force_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        c = rng.integers(0, 39, size=n)
        a = rng.integers(0, 41, size=n)
        p = rng.integers(0, 41, size=n)
        conf = mx.mdd_confusion(c, a, p)
        ta = fr = fa = tr = cd = 0
        for i in range(n):
            if a[i] == c[i]:
                if p[i] == c[i]:
                    ta += 1
                else:
                    fr += 1
            elif p[i] == c[i]:
                fa += 1
            else:
                tr += 1
                cd += int(p[i] == a[i])
        assert (conf.ta, conf.fr, conf.fa, conf.tr, conf.cd) == (ta, fr, fa, tr, cd)
        assert conf.total() == n


def test_confusion_length_mismatch():
    with pytest.raises(AlignmentError):
        mx.mdd_confusion([1, 2], [1], [1, 2])


def test_rates_known_values():
    conf = mx.MddConfusion(ta=50, fr=10, fa=5, tr=15, cd=12)
    recall, precision, f1, cd_rate, flags = mx.mdd_rates(conf)
    assert abs(recall - 15 / 20) < 1e-12
    assert abs(precision - 15 / 25) < 1e-12
    assert abs(f1 - 2 * precision * recall / (precision + recall)) < 1e-12
    assert abs(cd_rate - 12 / 15) < 1e-12
    assert flags == []


def test_rates_zero_denominators_flagged():
    recall, precision, f1, cd_rate, flags = mx.mdd_rates(mx.MddConfusion(ta=5))
    assert (recall, precision, f1, cd_rate) == (0.0, 0.0, 0.0, 0.0)
    assert set(flags) == {"recall", "precision", "f1", "correct_diag"}


# --- PER --------------------------------------------------------------------

def test_per_decision_table():
    # exact match
    assert mx.per([1, 2, 3], [1, 2, 3]) == 0.0
    # one substitution over three spoken phones
    assert abs(mx.per([1, 2, 3], [1, 9, 3]) - 1 / 3) < 1e-12
    # annotated deletion excluded from denominator but mismatch still counts
    assert abs(mx.per([1, DEL_ID, 3], [1, 2, 3]) - 1 / 2) < 1e-12
    # deletion correctly predicted: no error, denominator still 2
    assert mx.per([1, DEL_ID, 3], [1, DEL_ID, 3]) == 0.0
    # PER can exceed 1 when deletion positions are also wrong
    assert abs(mx.per([1, DEL_ID], [9, 2]) - 2.0) < 1e-12


def test_per_contracts():
    with pytest.raises(ContractError):
        mx.per([DEL_ID, DEL_ID], [1, 2])
    with pytest.raises(AlignmentError):
        mx.per([1, 2], [1])


# --- evaluate ---------------------------------------------------------------

class OracleModel:
    """Reads the planted targets straight off the record via a lookup."""

    def __init__(self, records):
        self._by_feat = {}
        for rec in records:
            self._by_feat[rec.features.tobytes()] = rec

    def predict(self, features, canonical_ids, word_spans):
        from capt.scoring import PredictionBundle
        rec = self._by_feat[np.asarray(features).tobytes()]
        n = rec.n_phones
        logits = np.zeros((n, 41))
        logits[np.arange(n), rec.realized_ids()] = 10.0
        return PredictionBundle(
            phone_scores=rec.phone_targets_norm(),
            mdd_logits=logits,
            word_scores=rec.word_targets_norm(),
            utterance_scores=rec.utt_targets_norm(),
        )


def test_evaluate_oracle_is_perfect():
    records, _ = synth_records(10, seed=2, ssl_dim=8)
    report = mx.evaluate(OracleModel(records), records)
    assert report.phone_mse == 0.0
    assert abs(report.phone_pcc - 1.0) < 1e-12
    for v in report.word_pcc.values():
        assert abs(v - 1.0) < 1e-12
    for v in report.utterance_pcc.values():
        assert abs(v - 1.0) < 1e-12
    assert report.mdd_per == 0.0
    assert report.mdd_recall == 1.0 and report.mdd_precision == 1.0
    assert report.mdd_f1 == 1.0 and report.mdd_correct_diag == 1.0
    assert report.mdd_confusion["fa"] == 0 and report.mdd_confusion["fr"] == 0
    assert report.n_utterances == 10


def test_evaluate_untrained_model_runs_and_reports():
    records, _ = synth_records(4, seed=3, ssl_dim=8)
    model = init_model(EncoderConfig(d_model=8, d_state=4, n_layers=1,
                                     conv_width=3, n_think=2),
                       feat_dim=9, seed=0)
    report = mx.evaluate(model, records)
    assert report.phone_mse > 0.0
    assert report.n_phones == sum(r.n_phones for r in records)
    text = report.to_text()
    assert text.endswith("\n")
    import json
    parsed = json.loads(text)
    assert parsed["n_utterances"] == 4


@pytest.mark.parametrize("all_deleted", [False, True])
def test_evaluate_takes_per_from_per(all_deleted):
    records, _ = synth_records(4, seed=4, ssl_dim=8)
    if all_deleted:  # every annotated phone is <del>: PER has no reference
        for rec in records:
            for p in rec.phones:
                p.realized = DEL
    model = init_model(EncoderConfig(d_model=8, d_state=4, n_layers=1,
                                     conv_width=3, n_think=2),
                       feat_dim=9, seed=0)
    report = mx.evaluate(model, records)
    annotated = np.concatenate([rec.realized_ids() for rec in records])
    predicted = np.concatenate([
        model.predict(rec.features, rec.canonical_ids(), rec.word_spans())
        .mdd_logits.argmax(axis=1) for rec in records])
    if all_deleted:
        with pytest.raises(mx.EmptyReferenceError):
            mx.per(annotated, predicted)
        assert report.mdd_per is None and "per_empty_reference" in report.flags
    else:
        assert report.mdd_per == mx.per(annotated, predicted)
        assert "per_empty_reference" not in report.flags


def test_evaluate_rejects_wrong_feature_width():
    records, _ = synth_records(3, seed=3, ssl_dim=8)
    model = init_model(EncoderConfig(d_model=8, d_state=4, n_layers=1,
                                     conv_width=3, n_think=2),
                       feat_dim=12, seed=0)
    with pytest.raises(CaptError) as e:
        mx.evaluate(model, records)
    msg = str(e.value)
    assert records[0].id in msg and "features" in msg and "9" in msg and "12" in msg


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_features_raise(value):
    records, _ = synth_records(3, seed=3, ssl_dim=8)
    model = init_model(EncoderConfig(d_model=8, d_state=4, n_layers=1,
                                     conv_width=3, n_think=2),
                       feat_dim=9, seed=0)
    rec = records[1]
    rec.features = rec.features.copy()
    rec.features[1][2] = value
    with pytest.raises(NumericError) as e:
        model.predict(rec.features, rec.canonical_ids(), rec.word_spans())
    assert f"features[1][2]: non-finite value {value} (1 in" in str(e.value)
    with pytest.raises(NumericError):
        model.forward(rec.features, rec.canonical_ids(), rec.word_spans())
    with pytest.raises(CaptError) as e:
        mx.evaluate(model, records)
    assert rec.id in str(e.value) and "features[1][2]" in str(e.value)


@pytest.mark.parametrize("value", [50, -1, 0.5, np.nan])
def test_bad_phone_ids_raise(value):
    records, _ = synth_records(3, seed=3, ssl_dim=8)
    model = init_model(EncoderConfig(d_model=8, d_state=4, n_layers=1,
                                     conv_width=3, n_think=2),
                       feat_dim=9, seed=0)
    rec = records[1]
    ids = rec.canonical_ids().astype(type(value))
    ids[2] = value
    with pytest.raises(InventoryError) as e:
        model.predict(rec.features, ids, rec.word_spans())
    assert f"phone_ids[2]: {value} is not a phone id in [0, 41) (1 in" in str(e.value)
    # in a packed batch the error names the utterance and the position within it
    first = records[0]
    spans = first.word_spans() + [(s + first.n_phones, e + first.n_phones)
                                  for s, e in rec.word_spans()]
    with pytest.raises(InventoryError) as e:
        model.forward(np.concatenate([first.features, rec.features]),
                      np.concatenate([first.canonical_ids(), ids]), spans,
                      [first.n_phones, rec.n_phones])
    assert f"utterance 1 of 2, phone_ids[2]: {value} is not" in str(e.value)
    rec.canonical_ids = lambda: ids
    with pytest.raises(CaptError) as e:
        mx.evaluate(model, records)
    assert rec.id in str(e.value) and f"phone_ids[2]: {value}" in str(e.value)


def test_non_integer_phone_id_array_raises():
    model = init_model(EncoderConfig(d_model=8, d_state=4, n_layers=1,
                                     conv_width=3, n_think=2),
                       feat_dim=9, seed=0)
    with pytest.raises(InventoryError) as e:
        model.predict(np.zeros((2, 9)), np.array(["a", "b"]), [(0, 2)])
    assert "1-D sequence of integers" in str(e.value)


def test_evaluate_empty_dataset():
    with pytest.raises(ContractError):
        mx.evaluate(None, [])


def test_evaluate_single_utterance_flags_utt_pcc():
    records, _ = synth_records(1, seed=4, ssl_dim=8)
    report = mx.evaluate(OracleModel(records), records)
    assert all(v is None for v in report.utterance_pcc.values())
    assert any(f.startswith("pcc_undefined:utterance.") for f in report.flags)
