"""In-memory spans around the textlaws functions the pipeline calls.

The tracer wraps functions where the glue code looks them up: the names
imported into ``textlaws.cli`` and ``textlaws.pipeline`` from the other
modules, and the public ``textlaws.distributions`` attributes the pipeline
reaches through ``dist.`` (through a stand-in module, so calls inside
``textlaws.distributions`` itself stay untraced).  No stage list is kept
here: a function the pipeline starts calling is traced without a change.

A span is ``(name, layer, start, end, parent index, run id)``; the layer is
the textlaws module the function comes from.  The caller wraps ``cli.main``
as the root span of each run, in the ``pipeline`` layer.  A call made while
a span of the same layer is open (the per-form counters that
``length_distribution`` calls back) is part of that span and opens none of
its own.
"""

from __future__ import annotations

import inspect
import types
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

GLUE_MODULES = ("textlaws.cli", "textlaws.pipeline")
ROOT = "pipeline.main"
# both ways of loading grapheme rules report as one metric
ALIASES = {"load_default_g2p": "load_g2p", "read_g2p_rules": "load_g2p"}


def span_name(layer: str, function: str, args: tuple) -> str:
    if function == "lm_fit":
        return f"fitting.lm_fit.{args[0]}"
    if function == "length_distribution":
        return f"distributions.length_{args[1]}"
    return f"{layer}.{ALIASES.get(function, function)}"


def record_counts(function: str, args: tuple, result, counts: Counter) -> None:
    """Work counts taken at the same boundary as the span."""
    if function == "tokenize":
        counts["tokenizer.tokens"] += len(result)
        counts["tokenizer.chars"] += len(args[0])
    elif function == "split_sentences":
        counts["tokenizer.sentences"] += len(result)
    elif function == "read_lemma_map":
        counts["lexicon.lemma_map_rows"] += len(result.rows) + sum(
            len(rows) for rows in result.ambiguous.values()
        )
    elif function == "lemmatize":
        forms = args[0]
        counts["lexicon.forms"] += len(forms.entries)
        counts["lexicon.tokens"] += forms.total_tokens
        counts["lexicon.mapped_tokens"] += forms.total_tokens - result.unmapped_tokens
    elif function == "rank_frequency":
        counts["distributions.rank_rows"] += len(result.rows)
    elif function == "lm_fit":
        prefix = f"fitting.lm_fit.{args[0]}"
        counts[f"{prefix}.iterations"] += result.iterations
        counts[f"{prefix}.accepted_steps"] += len(result.sse_trace) - 1
        counts[f"{prefix}.points"] += len(args[1])


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str | None = None):
        """``fn`` recording a span; the layer defaults to its textlaws module."""
        layer = layer or fn.__module__.split(".")[1]
        function = fn.__name__
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append((index, layer))
            name = span_name(layer, function, args)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                # a tuple of atoms leaves the garbage collector's lists, so a
                # long trace does not slow the collections the program runs
                spans[index] = (name, layer, start, end, parent, self.run)
            record_counts(function, args, result, counts)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import textlaws.cli as cli
        import textlaws.pipeline as pipeline

        for module in (cli, pipeline):
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith("textlaws.")
                    and value.__module__ not in GLUE_MODULES
                ):
                    self._patch(module, attr, self.wrap(value))
        dist = pipeline.dist
        stand_in = types.ModuleType(dist.__name__)
        for attr, value in vars(dist).items():
            public = inspect.isfunction(value) and value.__module__ == dist.__name__ and not attr.startswith("_")
            setattr(stand_in, attr, self.wrap(value) if public else value)
        self._patch(pipeline, "dist", stand_in)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for entry in spans:
        if entry[4] is not None:
            children[entry[4]].append((entry[2], entry[3]))
    result = []
    for index, (_, _, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        result.append(end - start - covered)
    return result


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Self time per span name and per layer, plus the counts and ratios.

    ``<layer>.self_s`` over every layer, the glue's ``pipeline.self_s``
    included, adds up to ``trace.wall_s``, the summed root spans.
    """
    metrics: dict[str, float] = defaultdict(float)
    for entry, own in zip(spans, self_times(spans)):
        name, layer = entry[0], entry[1]
        if name != ROOT:
            metrics[f"{name}_s"] += own
        metrics[f"{layer}.self_s"] += own
        if entry[4] is None:
            metrics["trace.wall_s"] += entry[3] - entry[2]
    metrics["fitting.model_eval.calls"] = sum(1 for entry in spans if entry[0] == "fitting.model_eval")
    metrics.update(counts)
    if counts["lexicon.tokens"]:
        metrics["lexicon.mapped_token_ratio"] = counts["lexicon.mapped_tokens"] / counts["lexicon.tokens"]
    return dict(metrics)
