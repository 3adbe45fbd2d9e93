"""The three workloads: inputs, set-up, measured loop and output checks.

Every workload is a closed loop with one caller: the next op (optimizer step
or ``Model.predict``) starts when the previous one has returned.  Inputs
come from capt's synthetic generator, so ``--seed`` fixes them: training
data uses the seed itself, held-out data ``seed + HELD_OUT_OFFSET``; the
default seed 11 gives the generator seeds 11 and 22 of the acceptance
tests.  The planted rule (rule_seed 0) is the same for every seed.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from capt import data, diffcore, metrics, scan, scoring
from capt import model as model_mod
from capt import training
from capt.encoder import EncoderConfig
from capt.errors import CaptError

from spans import Tracer, step_clock, summarize

DEFAULT_SEED = 11  # the acceptance tests' training-data seed
HELD_OUT_OFFSET = 11
RULE_SEED = 0
INIT_SEED = 5  # model init and TrainConfig seed of the criterion-5 run
LR = 2e-3
LONG_PARTS = 16  # synthetic utterances per train_long record
SETUP_REPEATS = 11
REPLAY_SHAPES = 12  # most frequent scan shapes replayed per traced run
REPLAY_REPEATS = 3
PINNED_REL_TOL = 1e-9
CRIT5_ENCODER = EncoderConfig(d_model=48, d_state=8, n_layers=1, conv_width=3, n_think=4)


@dataclass(frozen=True)
class Workload:
    name: str
    encoder: EncoderConfig
    batch_size: int
    n_train: int  # synthetic utterances generated for training
    n_held_out: int
    long: bool  # concatenate LONG_PARTS utterances per record
    trains: bool  # ops are optimizer steps, else Model.predict calls


WORKLOADS = {w.name: w for w in (
    Workload("train_short", CRIT5_ENCODER, 16, 512, 128, long=False, trains=True),
    Workload("train_long", EncoderConfig(), 4, 512, 128, long=True, trains=True),
    Workload("infer_short", CRIT5_ENCODER, 16, 64, 256, long=False, trains=False),
)}


# ---------------------------------------------------------------------------
# inputs


def concat_records(parts: list, tag: str) -> data.UtteranceRecord:
    """One long utterance from consecutive ones; utterance scores are the mean."""
    phones, words = [], []
    for rec in parts:
        offset = len(words)
        phones += [data.PhoneEntry(p.canonical, p.realized, p.score, p.word_index + offset)
                   for p in rec.phones]
        words += rec.word_scores
    utt = {a: float(np.mean([r.utterance_scores[a] for r in parts])) for a in scoring.ASPECTS}
    rec = data.UtteranceRecord(id=tag, phones=phones, word_scores=words,
                               utterance_scores=utt,
                               features=np.concatenate([r.features for r in parts]))
    data.validate_record(rec)
    scoring.validate_word_spans(rec.word_spans(), rec.n_phones)
    if len(rec.word_spans()) != len(words):
        raise CaptError(f"{tag}: {len(rec.word_spans())} word spans for {len(words)} words")
    return rec


def synth(ws: Workload, n: int, seed: int) -> list:
    recs, _ = data.synth_records(n, seed=seed, rule_seed=RULE_SEED)
    if not ws.long:
        return recs
    return [concat_records(recs[k:k + LONG_PARTS], f"long-{seed}-{k // LONG_PARTS:04d}")
            for k in range(0, n - LONG_PARTS + 1, LONG_PARTS)]


def served_model(ws: Workload, seed: int):
    """The model infer_short serves: one epoch of the criterion-5 run on 64 utterances.

    Returns (model, seconds spent in ``model.init_model``).
    """
    recs = synth(ws, ws.n_train, seed)
    t0 = time.perf_counter()
    m = model_mod.init_model(ws.encoder, recs[0].features.shape[1], seed=INIT_SEED)
    init_s = time.perf_counter() - t0
    training.train(recs, train_config(ws, epochs=1), m)
    return m, init_s


def train_config(ws: Workload, epochs: int) -> training.TrainConfig:
    return training.TrainConfig(lr=LR, epochs=epochs, batch_size=ws.batch_size,
                                seed=INIT_SEED)


def prepare(ws: Workload, seed: int, work: Path) -> dict:
    """Write the corpus that set-up loads (and the model file infer_short loads)."""
    if ws.trains:
        data.save_dataset(synth(ws, ws.n_train, seed), work / "corpus")
        return {}
    data.save_dataset(synth(ws, ws.n_held_out, seed + HELD_OUT_OFFSET), work / "corpus")
    m, init_s = served_model(ws, seed)
    model_mod.save_model(m, work / "model.capt")
    return {"model.init_s": [init_s]}


def setup(ws: Workload, work: Path):
    """What a `capt train` or `capt eval` run does before its first op."""
    t0 = time.perf_counter()
    records = data.load_dataset(work / "corpus")
    t1 = time.perf_counter()
    if ws.trains:
        m = model_mod.init_model(ws.encoder, records[0].features.shape[1], seed=INIT_SEED)
    else:
        m = model_mod.load_model(work / "model.capt")
    t2 = time.perf_counter()
    layer = "model.init_s" if ws.trains else "model.load_s"
    return records, m, {"data.load_s": t1 - t0, layer: t2 - t1}


# ---------------------------------------------------------------------------
# measured loops


def _finite(pred) -> bool:
    return all(np.isfinite(a).all() for a in (pred.phone_scores, pred.mdd_logits,
                                              pred.word_scores, pred.utterance_scores))


def measure_train(ws, records, m, seconds, tracer=None) -> dict:
    deadline = time.perf_counter() + seconds
    pass_ends = []

    def stop(_epoch, _bd):
        pass_ends.append(time.perf_counter())
        return pass_ends[-1] >= deadline

    stamps, failed = [], 0
    clock = tracer if tracer is not None else step_clock(stamps)
    t0 = time.perf_counter()
    try:
        with clock:
            training.train(records, train_config(ws, epochs=10**9), m, callback=stop)
    except CaptError:
        failed = 1
    if not pass_ends:  # the first epoch failed
        pass_ends.append(time.perf_counter())
    return {"passes": list(np.diff([t0] + pass_ends)), "ops": len(stamps), "failed": failed,
            "latencies": list(np.diff([t0] + stamps)),
            "first_pass_ops": math.ceil(len(records) / ws.batch_size)}


def measure_infer(ws, records, m, seconds, tracer=None) -> dict:
    inputs = [(r.features, r.canonical_ids(), r.word_spans()) for r in records]
    latencies, pass_ends, failed = [], [], 0
    clock = tracer if tracer is not None else nullcontext()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    with clock:
        while not pass_ends or pass_ends[-1] < deadline:
            for feats, ids, spans in inputs:
                t0 = time.perf_counter()
                pred = m.predict(feats, ids, spans)
                latencies.append(time.perf_counter() - t0)
                failed += not _finite(pred)
            pass_ends.append(time.perf_counter())
    return {"passes": list(np.diff([t_start] + pass_ends)), "ops": len(latencies),
            "failed": failed, "latencies": latencies, "first_pass_ops": len(inputs)}


def measure(ws, records, m, seconds, tracer=None) -> dict:
    """Closed loop over whole passes (epochs, or rounds of predicts) for ``seconds``.

    Throughput is reported from the median pass time, so a few seconds of
    interference from other processes on the machine move it less.
    """
    run = measure_train if ws.trains else measure_infer
    out = run(ws, records, m, seconds, tracer)
    if tracer is not None and ws.trains:
        out["latencies"] = [s[2] - s[1] for s in tracer.spans if s[3] < 0]
        out["ops"] = len(out["latencies"])
    median_pass = statistics.median(out["passes"])
    out["phones_per_s"] = sum(r.n_phones for r in records) / median_pass
    out["utts_per_s"] = len(records) / median_pass
    return out


def warm_up(ws, records, m):
    """A few ops first, so lazy allocation and cold caches are not timed."""
    if ws.trains:
        scratch = model_mod.init_model(ws.encoder, records[0].features.shape[1], seed=INIT_SEED)
        training.train(records[:2 * ws.batch_size], train_config(ws, epochs=1), scratch)
    else:
        for r in records:
            m.predict(r.features, r.canonical_ids(), r.word_spans())


# ---------------------------------------------------------------------------
# output checks


def pinned_outputs(ws: Workload, tracer=None) -> tuple[list, int]:
    """Outputs at the default seeds, compared with values pinned in pinned.json.

    Training workloads: the loss terms of the first optimizer steps (one
    batch per epoch, so each history entry is one step).  infer_short:
    prediction checksums and the ``metrics.evaluate`` report of the served
    model on 64 held-out utterances.  Returns (values, ops issued).
    """
    seed = DEFAULT_SEED
    clock = tracer if tracer is not None else nullcontext()
    if ws.trains:
        recs = synth(ws, ws.batch_size * (LONG_PARTS if ws.long else 1), seed)
        m = model_mod.init_model(ws.encoder, recs[0].features.shape[1], seed=INIT_SEED)
        steps = 3 if not ws.long else 2
        with clock:
            hist = training.train(recs, train_config(ws, epochs=steps), m)
        return [v for bd in hist for v in (bd.l_phn, bd.l_word, bd.l_utt, bd.l_mdd)], steps
    m, _ = served_model(ws, seed)
    held_out = synth(ws, 64, seed + HELD_OUT_OFFSET)
    sums = np.zeros(4)
    with clock:
        for r in held_out:
            p = m.predict(r.features, r.canonical_ids(), r.word_spans())
            sums += [p.phone_scores.sum(), np.abs(p.mdd_logits).sum(),
                     p.word_scores.sum(), p.utterance_scores.sum()]
    rep = metrics.evaluate(m, held_out)
    values = list(sums) + [rep.phone_mse, rep.phone_pcc, *rep.word_pcc.values(),
                           *rep.utterance_pcc.values(), rep.mdd_recall, rep.mdd_precision,
                           rep.mdd_f1, rep.mdd_correct_diag, rep.mdd_per]
    return [float(v) for v in values], len(held_out)


def matches(values, pinned) -> bool:
    return len(values) == len(pinned) and all(
        math.isclose(v, p, rel_tol=PINNED_REL_TOL) for v, p in zip(values, pinned))


def after_run_checks(ws, m, seed, work) -> tuple[dict, dict]:
    """Evaluate on held-out data; training workloads also save and reload."""
    held_out = (synth(ws, ws.n_held_out, seed + HELD_OUT_OFFSET) if ws.trains
                else data.load_dataset(work / "corpus"))
    t0 = time.perf_counter()
    rep = metrics.evaluate(m, held_out)
    timings = {"metrics.evaluate_s": [time.perf_counter() - t0]}
    checks = {"evaluate_finite": all(
        v is not None and math.isfinite(v)
        for v in (rep.phone_mse, rep.phone_pcc, rep.mdd_f1, rep.mdd_per))}
    if ws.trains:
        model_mod.save_model(m, work / "trained.capt")
        t0 = time.perf_counter()
        loaded = model_mod.load_model(work / "trained.capt")
        timings["model.load_s"] = [time.perf_counter() - t0]
        r = held_out[0]
        a = m.predict(r.features, r.canonical_ids(), r.word_spans())
        b = loaded.predict(r.features, r.canonical_ids(), r.word_spans())
        checks["save_load_round_trip"] = bool(
            np.array_equal(a.mdd_logits, b.mdd_logits)
            and np.array_equal(a.utterance_scores, b.utterance_scores))
    return checks, timings


# ---------------------------------------------------------------------------
# scan kernel replay


def _scan_bytes(t, c, s) -> int:
    """float64 bytes read and written by one forward plus one backward call."""
    fwd = (t * c + 2 * t * c * s + t * s + c) + (t * c + t * c * s)
    bwd = (t * c + 3 * t * c * s + t * s + c + t * c) + (t * c + 2 * t * c * s + t * s + c)
    return 8 * (fwd + bwd)


def replay_scan(shape_counts: dict, seed: int) -> dict:
    """Time ``selective_scan`` forward and ``Tape.backward`` at the traced shapes.

    The most frequent REPLAY_SHAPES shapes are replayed REPLAY_REPEATS times
    each on random streams; per-element times are weighted by how often
    each shape was called.
    """
    rng = np.random.default_rng(seed)
    shapes = sorted(shape_counts, key=lambda k: (-shape_counts[k], k))[:REPLAY_SHAPES]
    fwd_ns = bwd_ns = elems = 0.0
    for t, c, s in shapes:
        x = diffcore.Tensor(rng.normal(size=(t, c)))
        a_bar = diffcore.Tensor(rng.uniform(0.5, 1.0, size=(t, c, s)))
        b_bar = diffcore.Tensor(rng.normal(size=(t, c, s)))
        c_t = diffcore.Tensor(rng.normal(size=(t, s)))
        d = diffcore.Tensor(rng.normal(size=c))
        f_times, b_times = [], []
        for _ in range(REPLAY_REPEATS):
            with diffcore.Tape() as tape:
                t0 = time.perf_counter()
                y = scan.selective_scan(x, a_bar, b_bar, c_t, d)
                t1 = time.perf_counter()
                loss = diffcore.total_sum(y)
                t2 = time.perf_counter()
                tape.backward(loss)
                t3 = time.perf_counter()
            f_times.append(t1 - t0)
            b_times.append(t3 - t2)
        n = shape_counts[(t, c, s)]
        fwd_ns += n * statistics.median(f_times) * 1e9
        bwd_ns += n * statistics.median(b_times) * 1e9
        elems += n * t * c * s
    calls = sum(shape_counts.values())
    return {
        "scan.kernel_fwd_ns_per_elem": (fwd_ns / elems, "ns"),
        "scan.kernel_bwd_ns_per_elem": (bwd_ns / elems, "ns"),
        "scan.computed_bytes_per_call":
            (sum(n * _scan_bytes(*k) for k, n in shape_counts.items()) / calls, "B"),
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(meas: dict, setup_totals: list) -> dict:
    lat_ms = np.asarray(meas["latencies"]) * 1e3
    return {
        "phones_per_s": (meas["phones_per_s"], "phones/s"),
        "utts_per_s": (meas["utts_per_s"], "utts/s"),
        "op_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        "setup_s": (statistics.median(setup_totals), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(spans, first_pass_ops: int, records) -> tuple[dict, dict]:
    """Per-op layer metrics from the traced phase, plus an accounting check."""
    sm = summarize(spans)
    total, self_t = sm["total"], sm["self"]
    op_ms = [(e - s) * 1e3 for s, e in sm["ops"]]
    n_ops, op_total = len(op_ms), sum(op_ms) / 1e3

    def ms(seconds):
        return seconds * 1e3 / n_ops

    def share(seconds):
        return 100.0 * seconds / op_total

    loss_s = (self_t["training.batch_loss"] + total["training.apa_loss"]
              + total["training.mdd_loss"])
    scoring_s = total["scoring.phone"] + total["scoring.word"] + total["scoring.utt"]
    # exact counts come from the first pass over the data, which every run makes
    first = [sp for sp, op in zip(spans, sm["op_of"]) if op < first_pass_ops]
    tape_ops = sum(sp[4] for sp in first if sp[0] == "diffcore.backward")
    scan_first = [sp[4] for sp in first if sp[0] == "scan"]
    out = {
        "op.ms_mean": (ms(op_total), "ms"),
        "op.ms_p50": (float(np.percentile(op_ms, 50)), "ms"),
        "op.self_ms": (ms(self_t["op"]), "ms"),
        "model.forward_ms_per_op": (ms(total["model.forward"]), "ms"),
        "model.self_ms_per_op": (ms(self_t["model.forward"]), "ms"),
        "features.ms_per_op": (ms(total["features"]), "ms"),
        "encoder.ms_per_op": (ms(total["encoder"]), "ms"),
        "encoder.share": (share(total["encoder"]), "%"),
        **{f"encoder.l{i}.{d}.ms_per_op": (ms(total[f"encoder.l{i}.{d}"]), "ms")
           for i in range(2) for d in ("fwd", "bwd")},
        "scan.fwd_ms_per_op": (ms(total["scan"]), "ms"),
        "scan.fwd_share": (share(total["scan"]), "%"),
        "scan.calls_per_op": (len(scan_first) / first_pass_ops, "calls"),
        "scan.timesteps_per_op": (sum(sh[0] for sh in scan_first) / first_pass_ops, "steps"),
        "scoring.phone.ms_per_op": (ms(total["scoring.phone"]), "ms"),
        "scoring.word.ms_per_op": (ms(total["scoring.word"]), "ms"),
        "scoring.utt.ms_per_op": (ms(total["scoring.utt"]), "ms"),
        "scoring.share": (share(scoring_s), "%"),
        "training.loss_ms_per_op": (ms(loss_s), "ms"),
        "training.optimizer_ms_per_op": (ms(total["training.optimizer"]), "ms"),
        "diffcore.tape_ops_per_op": (tape_ops / first_pass_ops, "ops"),
        # one pass covers every record
        "diffcore.tape_ops_per_phone": (tape_ops / sum(r.n_phones for r in records),
                                        "ops/phone"),
        "diffcore.backward_ms_per_op": (ms(total["diffcore.backward"]), "ms"),
        "diffcore.backward_share": (share(total["diffcore.backward"]), "%"),
    }
    # the op's children and its self time must add up to the op
    parts = (total["model.forward"] + loss_s + total["diffcore.backward"]
             + total["training.optimizer"] + self_t["op"])
    fwd_parts = total["features"] + total["encoder"] + scoring_s + self_t["model.forward"]
    accounted = (math.isclose(parts, op_total, rel_tol=1e-9)
                 and math.isclose(fwd_parts, total["model.forward"], rel_tol=1e-9))
    shapes = Counter(tuple(sp[4]) for sp in spans if sp[0] == "scan")
    return out, {"spans_account_for_op_time": accounted, "shapes": shapes}


# ---------------------------------------------------------------------------
# one run


def _median_timings(timings: dict) -> dict:
    return {k: (statistics.median(v), "s") for k, v in sorted(timings.items())}


def _tape_counts(tracer: Tracer) -> list:
    return [s[4] for s in tracer.spans if s[0] == "diffcore.backward"]


def run(ws: Workload, seed: int, seconds: float, traced: bool, work: Path,
        spans_path: Path) -> dict:
    """One benchmark run; returns metrics, checks, op counts and sample counts."""
    timings = prepare(ws, seed, work)
    setup_totals = []

    def timed_setups(times: int):
        for _ in range(times):
            records, m, t = setup(ws, work)
            setup_totals.append(sum(t.values()))
            for k, v in t.items():
                timings.setdefault(k, []).append(v)
        return records, m

    # half the set-ups before the measured loop and half after it, so the
    # median does not rest on one moment of the machine's load
    records, m = timed_setups(SETUP_REPEATS // 2 + 1)

    pinned = json.loads((Path(__file__).parent / "pinned.json").read_text())[ws.name]
    values, attempted = pinned_outputs(ws)
    checks = {"pinned_outputs": matches(values, pinned)}
    failed = 0 if checks["pinned_outputs"] else attempted
    if traced:
        tracers = Tracer(ws.trains), Tracer(ws.trains)
        traced_values = [pinned_outputs(ws, t)[0] for t in tracers]
        checks["traced_outputs_bit_identical"] = all(v == values for v in traced_values)
        checks["tape_ops_repeat"] = _tape_counts(tracers[0]) == _tape_counts(tracers[1])

    warm_up(ws, records, m)
    if traced:
        # untraced quarters before and after the traced half, so a drift in
        # the machine's speed cancels out of trace.overhead_pct
        plain = [measure(ws, records, m, seconds / 4)]
        # the traced phase starts from the initial model, so its counts repeat
        traced_records, traced_m = setup(ws, work)[:2] if ws.trains else (records, m)
        tracer = Tracer(ws.trains)
        meas = measure(ws, traced_records, traced_m, seconds / 2, tracer)
        plain.append(measure(ws, records, m, seconds / 4))
        for p in plain:
            attempted += p["ops"]
            failed += p["failed"]
    else:
        meas = measure(ws, records, m, seconds)
    attempted += meas["ops"]
    failed += meas["failed"]

    post_checks, post_timings = after_run_checks(ws, m, seed, work)
    checks.update(post_checks)
    for k, v in post_timings.items():
        timings.setdefault(k, []).extend(v)
    timed_setups(SETUP_REPEATS // 2)
    samples = {"ops_timed": meas["ops"], "latency_samples": len(meas["latencies"]),
               "setup_repeats": SETUP_REPEATS, "passes": len(meas["passes"]),
               "measured_s": sum(meas["passes"])}

    if not traced:
        metrics_out = end_to_end(meas, setup_totals)
    else:
        tracer.write(spans_path)
        layers, acct = per_layer(tracer.spans, meas["first_pass_ops"], traced_records)
        checks["spans_account_for_op_time"] = acct["spans_account_for_op_time"]
        metrics_out = {**_median_timings(timings), **layers,
                       **replay_scan(acct["shapes"], seed)}
        untraced_pass = statistics.median(plain[0]["passes"] + plain[1]["passes"])
        overhead = 100.0 * (statistics.median(meas["passes"]) / untraced_pass - 1.0)
        metrics_out["trace.overhead_pct"] = (overhead, "%")
        samples.update({"untraced_ops": plain[0]["ops"] + plain[1]["ops"],
                        "spans": len(tracer.spans),
                        "first_pass_ops": meas["first_pass_ops"]})
    return {"correct": failed == 0 and all(checks.values()), "attempted": attempted,
            "failed": failed, "metrics": metrics_out, "checks": checks, "samples": samples}
