"""Command-line surface: synth, train, eval, score, gradcheck."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import data as data_mod
from . import metrics as metrics_mod
from . import model as model_mod
from .errors import CaptError, DatasetError, PersistenceError
from .gradsuite import overfit_sanity, run_suite
from .phonology import PHONES
from .scoring import ASPECTS
from .training import train


def _load_cfg(args) -> data_mod.RunConfig:
    cfg = data_mod.load_run_config(args.config) if args.config else data_mod.RunConfig()
    if args.seed is not None:
        cfg.training.seed = args.seed
        cfg.training.validate()
    return cfg


def _write(path, what: str, data: bytes = b""):
    """Write ``data`` to ``path``, raising a PersistenceError that names it.
    With no data this empties the path before the work that fills it, so an
    unwritable path fails before the first epoch or evaluation."""
    try:
        Path(path).write_bytes(data)
    except OSError as e:
        raise PersistenceError(f"{path}: cannot write {what}: {e}") from e


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="capt",
                                 description="Joint pronunciation assessment and "
                                             "mispronunciation detection toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI run configuration file")
        p.add_argument("--seed", type=int, help="override the training seed")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--rule-seed", type=int, default=0)
    p.add_argument("--ssl-dim", type=int, default=32)

    p = sub.add_parser("train", help="fit a model and save it")
    common(p)
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--log", help="loss log CSV path (default: <out>.loss.csv)")

    p = sub.add_parser("eval", help="evaluate a saved model on a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="write the report here as well as stdout")

    p = sub.add_parser("score", help="print predictions for one utterance")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--id", required=True, help="utterance id")

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    common(p)
    p.add_argument("--overfit", type=int, metavar="N",
                   help="additionally run the overfit sanity harness on N utterances")

    return ap


def _cmd_synth(args) -> int:
    meta = data_mod.synth_corpus(args.n, args.seed, args.out,
                                 rule_seed=args.rule_seed, ssl_dim=args.ssl_dim)
    print(json.dumps(meta, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    records = data_mod.load_dataset(args.data)
    feat_dim = records[0].features.shape[1]
    model = model_mod.init_model(cfg.encoder, feat_dim, seed=cfg.training.seed)
    log_path = args.log or (str(args.out) + ".loss.csv")
    _write(args.out, "model file")
    history = train(records, cfg.training, model, log_path=log_path)
    model_mod.save_model(model, args.out)
    final = history[-1] if history else None
    if final:
        print(f"trained {cfg.training.epochs} epochs; "
              f"final total loss {final.l_total(cfg.training.alpha):.6f}")
    print(f"model saved to {args.out}; loss log at {log_path}")
    return 0


def _load_model_and_corpus(args):
    """The --model file and the --data corpus, checked to agree on the
    feature width."""
    model = model_mod.load_model(args.model)
    records = data_mod.load_dataset(args.data)
    model.check_feature_width(records, f"{args.data} against model {args.model}: ")
    return model, records


def _cmd_eval(args) -> int:
    model, records = _load_model_and_corpus(args)
    if args.out:
        _write(args.out, "eval report")
    t0 = time.perf_counter()
    report = metrics_mod.evaluate(model, records)
    wall_s = time.perf_counter() - t0
    # the timing stays out of EvalReport, whose own text is deterministic
    text = report.to_text(wall_s=wall_s, utts_per_s=len(records) / wall_s)
    sys.stdout.write(text)
    if args.out:
        _write(args.out, "eval report", text.encode())
    return 0


def _cmd_score(args) -> int:
    model, records = _load_model_and_corpus(args)
    by_id = {r.id: r for r in records}
    if args.id not in by_id:
        raise DatasetError(f"{args.data}: utterance id {args.id!r} not in corpus")
    rec = by_id[args.id]
    pred = model.predict(rec.features, rec.canonical_ids(), rec.word_spans())
    out = {
        "id": rec.id,
        "phone_scores": [round(float(s) * data_mod.PHONE_SCORE_MAX, 4)
                         for s in pred.phone_scores],
        "mdd_predicted": [PHONES[i] for i in pred.mdd_logits.argmax(axis=1)],
        "word_scores": [[round(float(s) * data_mod.WORD_SCORE_MAX, 4) for s in row]
                        for row in pred.word_scores],
        "utterance_scores": {a: round(float(s) * data_mod.UTT_SCORE_MAX, 4)
                             for a, s in zip(ASPECTS, pred.utterance_scores)},
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = _load_cfg(args)
    # the harness runs first, so a bad N fails before the suite's seconds
    report = (None if args.overfit is None
              else overfit_sanity(args.overfit, cfg.encoder, cfg.training))
    results = run_suite(seed=cfg.training.seed)
    ok = True
    for name, err, passed in results:
        print(f"{'PASS' if passed else 'FAIL'} {name:24s} max rel err {err:.3e}")
        ok = ok and passed
    if report is not None:
        print(f"{'PASS' if report['passed'] else 'FAIL'} overfit_sanity "
              f"phone_mse={report['phone_mse']:.5f} "
              f"mdd_accuracy={report['mdd_accuracy']:.4f} "
              f"({report['epochs_run']} epochs)")
        ok = ok and report["passed"]
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "score": _cmd_score,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except CaptError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
