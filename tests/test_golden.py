"""Golden outputs of the CLI chain synth -> train -> eval -> score.

One small run through ``cli.main`` is pinned, so that a refactor that should
change no number is shown to change none.  The corpus files are generator
output with no BLAS in them and are pinned by SHA-256.  The trained numbers
(the loss log, the model's parameter norms, the eval report without its two
timing keys, the score output) are pinned to 1e-9 relative, the tolerance
perfbench pins its outputs to: a different numpy or BLAS may move the last
bits of a float, while any change to the math moves far more than that.
"""

import csv
import hashlib
import json
import math

from capt import cli
from capt.model import load_model

INI = ("[model]\nd_model = 8\nd_state = 4\nn_layers = 1\n"
       "[training]\nepochs = 2\nbatch_size = 16\nlr = 0.002\n")

CORPUS_SHA256 = {
    "corpus.jsonl": "4936e1a81cba8751096cbf683303dd9e02cd6a9f5a64025d315b5e8c62a563a3",
    "features.bin": "1afb26b182d3a659c63953e2fa50e463e3ac1852c595cb47e08b094e31900d21",
}
LOSS_LOG = [
    ["epoch", "l_phn", "l_word", "l_utt", "l_mdd", "l_total"],
    [0, 0.04818979356967458, 0.020627241720718517, 0.010288343514820834,
     3.675140375041802, 1.1579158776761902],
    [1, 0.043792288124260156, 0.013685669815416936, 0.004159435382720306,
     3.586036889577633, 1.118957242198968],
]
PARAM_NORMS = [668.7493010337968, 275.67279622433074]  # sum of |p|, sum of p**2
EVAL_REPORT = {
    "flags": [],
    "mdd_confusion": {"cd": 87, "fa": 0, "fr": 433, "ta": 15, "tr": 266},
    "mdd_correct_diag": 0.32706766917293234,
    "mdd_f1": 0.5512953367875647,
    "mdd_per": 0.9315068493150684,
    "mdd_precision": 0.3805436337625179,
    "mdd_recall": 1.0,
    "n_phones": 714,
    "n_utterances": 64,
    "phone_mse": 0.1692681591063212,
    "phone_pcc": 0.39846199620792677,
    "utterance_pcc": {"accuracy": 0.5366031520102427, "completeness": -0.13372091233545014,
                      "fluency": -0.2906019083881743, "prosody": 0.1788837435398688,
                      "total": 0.4492479493230679},
    "word_pcc": {"accuracy": 0.2860358808298919, "stress": -0.0033015330067586615,
                 "total": 0.5259690213936133},
}
SCORE = {
    "id": "synth-00000011-000000",
    "mdd_predicted": ["AW", "<del>", "<del>", "<del>", "<del>"],
    "phone_scores": [1.1278, 1.2053, 0.7798, 1.0426, 1.0079],
    "utterance_scores": {"accuracy": 5.0112, "completeness": 5.4153, "fluency": 4.7797,
                         "prosody": 5.1027, "total": 4.7214},
    "word_scores": [[4.8672, 5.1382, 4.3478]],
}
REL_TOL = 1e-9


def run_chain(tmp_path, capsys) -> dict:
    """Runs the chain in ``tmp_path``; returns each output that is pinned."""
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0, capsys.readouterr().err
        return capsys.readouterr().out

    corpus, model, ini = tmp_path / "corpus", tmp_path / "m.capt", tmp_path / "run.ini"
    ini.write_text(INI)
    run("synth", "--n", 64, "--seed", 11, "--out", corpus)
    run("train", "--config", ini, "--data", corpus, "--out", model,
        "--log", tmp_path / "loss.csv")
    run("eval", "--model", model, "--data", corpus, "--out", tmp_path / "report.json")
    first_id = json.loads((corpus / "corpus.jsonl").read_text().splitlines()[0])["id"]
    score = json.loads(run("score", "--model", model, "--data", corpus, "--id", first_id))
    report = json.loads((tmp_path / "report.json").read_text())
    del report["wall_s"], report["utts_per_s"]
    params = load_model(model).params
    with open(tmp_path / "loss.csv", newline="") as f:
        rows = list(csv.reader(f))
    return {
        "sha256": {name: hashlib.sha256((corpus / name).read_bytes()).hexdigest()
                   for name in CORPUS_SHA256},
        "loss_log": [rows[0]] + [[int(r[0])] + [float(v) for v in r[1:]] for r in rows[1:]],
        "param_norms": [sum(float(abs(params[k].data).sum()) for k in sorted(params)),
                        sum(float((params[k].data ** 2).sum()) for k in sorted(params))],
        "report": report,
        "score": score,
    }


def close(got, want, at="") -> None:
    """Asserts that ``got`` equals ``want``, floats to REL_TOL relative."""
    assert type(got) is type(want), f"{at}: {got!r} is not like {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{at}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            close(got[k], want[k], f"{at}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{at}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            close(g, w, f"{at}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL), f"{at}: {got!r} != {want!r}"
    else:
        assert got == want, f"{at}: {got!r} != {want!r}"


def test_cli_chain_matches_golden_outputs(tmp_path, capsys):
    out = run_chain(tmp_path, capsys)
    assert out["sha256"] == CORPUS_SHA256
    close(out["loss_log"], LOSS_LOG, "loss_log")
    close(out["param_norms"], PARAM_NORMS, "param_norms")
    close(out["report"], EVAL_REPORT, "report")
    close(out["score"], SCORE, "score")
