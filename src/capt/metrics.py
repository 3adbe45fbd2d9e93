"""Evaluation: per-level MSE/PCC, hierarchical MDD confusion, PER.

Detection counts follow the hierarchical convention: on correctly
pronounced phones the model may accept (TA) or falsely reject (FR); on
mispronounced phones it may falsely accept (FA) or truly reject (TR), and a
true rejection counts as a correct diagnosis (CD) when the predicted phone
matches the annotated realization.  All sequences are aligned positionwise;
the corpus contract excludes insertion errors.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import PHONE_SCORE_MAX
from .errors import AlignmentError, CaptError, ContractError
from .phonology import DEL_ID
from .scoring import ASPECTS, WORD_SCORE_NAMES


class ConstantInputError(ContractError):
    """PCC undefined: an input sequence is constant (one point is too)."""


class EmptyReferenceError(ContractError):
    """PER undefined: every annotated phone is a deletion."""


def pcc(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ContractError(f"pcc: need equal-length 1-D inputs, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ConstantInputError("pcc undefined for fewer than 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx**2).sum()))
    sy = float(np.sqrt((dy**2).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ConstantInputError("pcc undefined for constant input")
    return float((dx * dy).sum() / (sx * sy))


@dataclass
class MddConfusion:
    ta: int = 0  # correctly pronounced, accepted
    fr: int = 0  # correctly pronounced, falsely rejected
    fa: int = 0  # mispronounced, falsely accepted
    tr: int = 0  # mispronounced, rejected
    cd: int = 0  # rejected and diagnosed as the annotated phone


def mdd_confusion(canonical, annotated, predicted) -> MddConfusion:
    canonical = np.asarray(canonical, dtype=np.int64)
    annotated = np.asarray(annotated, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if not (canonical.shape == annotated.shape == predicted.shape) or canonical.ndim != 1:
        raise AlignmentError(
            f"mdd_confusion: length mismatch {canonical.shape}/"
            f"{annotated.shape}/{predicted.shape}"
        )
    correct = annotated == canonical
    accepted = predicted == canonical
    true_rejected = ~correct & ~accepted
    return MddConfusion(
        ta=int(np.count_nonzero(correct & accepted)),
        fr=int(np.count_nonzero(correct & ~accepted)),
        fa=int(np.count_nonzero(~correct & accepted)),
        tr=int(np.count_nonzero(true_rejected)),
        cd=int(np.count_nonzero(true_rejected & (predicted == annotated))),
    )


def _safe_div(num: float, den: float, flags: list[str], name: str) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def mdd_rates(conf: MddConfusion):
    """(recall, precision, f1, correct_diag, flags-for-zero-denominators)."""
    flags: list[str] = []
    recall = _safe_div(conf.tr, conf.tr + conf.fa, flags, "recall")
    precision = _safe_div(conf.tr, conf.tr + conf.fr, flags, "precision")
    f1 = _safe_div(2 * precision * recall, precision + recall, flags, "f1")
    correct_diag = _safe_div(conf.cd, conf.tr, flags, "correct_diag")
    return recall, precision, f1, correct_diag, flags


def per(annotated, predicted) -> float:
    """Positionwise phone error rate against the annotated realization.

    <del> is an ordinary class for mismatch counting, but annotated <del>
    positions are excluded from the denominator (no phone was spoken).
    """
    annotated = np.asarray(annotated, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if annotated.shape != predicted.shape or annotated.ndim != 1:
        raise AlignmentError(
            f"per: length mismatch {annotated.shape} vs {predicted.shape}"
        )
    ref_len = int((annotated != DEL_ID).sum())
    if ref_len == 0:
        raise EmptyReferenceError("per: empty reference (no spoken phones)")
    errors = int((annotated != predicted).sum())
    return errors / ref_len


@dataclass
class EvalReport:
    phone_mse: float | None = None  # raw 0-2 score space
    phone_pcc: float | None = None
    word_pcc: dict = field(default_factory=dict)  # per accuracy/stress/total
    utterance_pcc: dict = field(default_factory=dict)  # per aspect
    mdd_recall: float = 0.0
    mdd_precision: float = 0.0
    mdd_f1: float = 0.0
    mdd_correct_diag: float = 0.0
    mdd_per: float | None = None
    mdd_confusion: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    n_utterances: int = 0
    n_phones: int = 0

    def to_text(self, **extra) -> str:
        """Sorted, indented JSON of the report, with ``extra`` keys (such as
        a run's timing) added beside its fields."""
        return json.dumps({**asdict(self), **extra}, sort_keys=True, indent=2) + "\n"


def _pcc_or_flag(x, y, name: str, flags: list[str]):
    try:
        return pcc(x, y)
    except ConstantInputError:
        flags.append(f"pcc_undefined:{name}")
        return None


def evaluate(model, records) -> EvalReport:
    """Aggregate all metrics over a dataset; PCCs pool items across the set."""
    if not records:
        raise ContractError("evaluate: empty dataset")
    phone_pred, phone_tgt = [], []
    word_pred, word_tgt = [], []
    utt_pred, utt_tgt = [], []
    canonical, annotated, predicted = [], [], []
    for rec in records:
        canon = rec.canonical_ids()
        try:
            pred = model.predict(rec.features, canon, rec.word_spans())
        except CaptError as e:
            raise type(e)(f"evaluate: utterance {rec.id!r}: {e}") from e
        phone_pred.append(pred.phone_scores)
        phone_tgt.append(rec.phone_targets_norm())
        word_pred.append(pred.word_scores)
        word_tgt.append(rec.word_targets_norm())
        utt_pred.append(pred.utterance_scores)
        utt_tgt.append(rec.utt_targets_norm())
        canonical.append(canon)
        annotated.append(rec.realized_ids())
        predicted.append(pred.mdd_logits.argmax(axis=1))

    report = EvalReport(n_utterances=len(records))
    phone_pred = np.concatenate(phone_pred)
    phone_tgt = np.concatenate(phone_tgt)
    report.n_phones = phone_pred.size
    # on the annotation scale; the PCCs do not depend on scale
    report.phone_mse = float(((phone_pred - phone_tgt) ** 2).mean()) * PHONE_SCORE_MAX**2
    report.phone_pcc = _pcc_or_flag(phone_pred, phone_tgt, "phone", report.flags)
    word_pred = np.concatenate(word_pred, axis=0)
    word_tgt = np.concatenate(word_tgt, axis=0)
    for j, name in enumerate(WORD_SCORE_NAMES):
        report.word_pcc[name] = _pcc_or_flag(word_pred[:, j], word_tgt[:, j],
                                             f"word.{name}", report.flags)
    utt_pred = np.stack(utt_pred)
    utt_tgt = np.stack(utt_tgt)
    for j, name in enumerate(ASPECTS):
        report.utterance_pcc[name] = _pcc_or_flag(utt_pred[:, j], utt_tgt[:, j],
                                                  f"utterance.{name}", report.flags)
    annotated, predicted = np.concatenate(annotated), np.concatenate(predicted)
    conf = mdd_confusion(np.concatenate(canonical), annotated, predicted)
    re_, pr_, f1_, cd_, flags = mdd_rates(conf)
    report.mdd_recall, report.mdd_precision = re_, pr_
    report.mdd_f1, report.mdd_correct_diag = f1_, cd_
    report.flags.extend(f"mdd_zero_denominator:{f}" for f in flags)
    try:
        report.mdd_per = per(annotated, predicted)
    except EmptyReferenceError:
        report.flags.append("per_empty_reference")
    report.mdd_confusion = asdict(conf)
    return report
