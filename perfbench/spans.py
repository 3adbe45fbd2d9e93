"""Span tracing of capt from outside the package.

``Tracer`` wraps capt's public entry points where their callers look them
up (a module attribute or a class attribute), records one span per call and
restores the originals when it is closed.  Spans stay in memory as
``[name, start, end, parent, info]`` lists until the run writes them out.

An op is one optimizer step or one ``Model.predict`` call.  During training
the op span runs from the end of one ``Adam.step`` to the end of the next
(the first from entry into the traced block), so zero_grad, batch
selection and the epoch bookkeeping of ``training.train`` land in the op's
self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from capt import diffcore, encoder, features, model, scoring, training

OP = "op"


@contextmanager
def patched(patches):
    """Install ``(owner, attr, make_wrapper)`` patches; restore on exit."""
    saved = []
    try:
        for owner, attr, make in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def step_clock(stamps: list):
    """Untraced op clock: appends the time at which each Adam step ends."""

    def make(step):
        def timed_step(self):
            step(self)
            stamps.append(time.perf_counter())

        return timed_step

    return patched([(training.Adam, "step", make)])


class Tracer:
    """Context manager: while entered, every wrapped call records a span.

    ``training_ops`` makes optimizer steps delimit the op spans; otherwise
    each ``Model.predict`` call is an op.
    """

    def __init__(self, training_ops: bool):
        self.spans: list[list] = []
        self.training_ops = training_ops
        self._stack: list[int] = []
        self._patches = None

    # -- span bookkeeping ---------------------------------------------------
    def begin(self, name: str, info=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, info])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def _span(self, name, info=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.begin(name(args) if callable(name) else name,
                                 info(args) if info else None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(idx)

            return wrapper

        return make

    def _optimizer_step(self, step):
        inner = self._span("training.optimizer")(step)

        def rotating_step(opt):
            inner(opt)
            self.end(self._stack[-1])
            self.begin(OP)

        return rotating_step

    # -- install / remove ---------------------------------------------------
    def __enter__(self):
        s = self._span
        self._patches = patched([
            (model.Model, "predict", s(OP)),
            (model.Model, "forward", s("model.forward")),
            (features, "assemble_utterance_features", s("features")),
            (model, "bimamba_encode", s("encoder")),
            (encoder, "mamba_block",
             s(lambda a: "encoder" + a[2][a[2].index("."):])),
            (encoder, "selective_scan", s("scan", lambda a: a[1].data.shape)),
            (scoring, "phone_level_outputs", s("scoring.phone")),
            (scoring, "word_level_outputs", s("scoring.word")),
            (scoring, "utterance_level_outputs", s("scoring.utt")),
            (training, "batch_loss", s("training.batch_loss")),
            (training, "apa_loss", s("training.apa_loss")),
            (training, "mdd_loss", s("training.mdd_loss")),
            (diffcore.Tape, "backward", s("diffcore.backward", lambda a: len(a[0]))),
            (training.Adam, "step", self._optimizer_step),
        ])
        self._patches.__enter__()
        if self.training_ops:
            self.begin(OP)
        return self

    def __exit__(self, exc_type, *exc):
        try:
            if exc_type is None and self.training_ops:
                # the op opened by the last optimizer step holds no step
                idx = self._stack.pop()
                if idx != len(self.spans) - 1:
                    raise RuntimeError("trailing op span has children")
                self.spans.pop()
        finally:
            self._patches.__exit__(exc_type, *exc)
        return False

    # -- output -------------------------------------------------------------
    def write(self, path) -> None:
        """One JSON list ``[name, start, end, parent, info]`` per line."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def summarize(spans) -> dict:
    """Per-op sums by span name: inclusive time, self time, op index.

    Returns ``{"ops": [(start, end)], "total": {name: s}, "self": {name: s},
    "op_of": [op index per span]}``; a name with no span sums to 0.
    """
    ops, op_of = [], []
    child = [0.0] * len(spans)
    total = defaultdict(float)
    for name, start, end, parent, _ in spans:
        dur = end - start
        if parent < 0:
            if name != OP:
                raise RuntimeError(f"span {name!r} outside any op")
            op_of.append(len(ops))
            ops.append((start, end))
        else:
            op_of.append(op_of[parent])
            child[parent] += dur
        total[name] += dur
    self_t = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_t[name] += (end - start) - child[i]
    return {"ops": ops, "total": total, "self": self_t, "op_of": op_of}
