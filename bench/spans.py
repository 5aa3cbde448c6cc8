"""Spans around the program's layer boundaries, recorded from outside.

The tracer rebinds module-level names: every ``trialogic`` module that
holds a boundary function under some name gets a wrapper in its place,
so calls that look the name up at call time (which is how the program
calls across modules) open a span.  Nothing in the program changes.
Spans stay in memory as ``[name, parent, start, end, note]`` lists; the
per-layer numbers are derived from them once the traced passes end.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, layer).  ``parse_moves`` lives in ``game`` but is
# parsing work, so it counts toward ``dsl``.  ``_exhaustive`` is the one
# private boundary: ``analyze`` reaches the game-tree search only there.
BOUNDARIES = (
    ("dsl", "parse_theory", "dsl"),
    ("dsl", "parse_query", "dsl"),
    ("dsl", "serialize_theory", "dsl"),
    ("game", "parse_moves", "dsl"),
    ("model", "validate_theory", "model"),
    ("model", "validate_setup", "model"),
    ("engine", "compute_conclusions", "engine"),
    ("engine", "holds", "engine"),
    ("engine", "standards_met", "engine"),
    ("game", "conclusions_for", "game"),
    ("game", "claim_established", "game"),
    ("game", "claim_refuted", "game"),
    ("game", "initial_state", "game"),
    ("game", "open_game", "game"),
    ("game", "legal_move", "game"),
    ("game", "apply_move", "game"),
    ("game", "adjudicate_pools", "game"),
    ("game", "adjudicate", "game"),
    ("game", "run_game", "game"),
    ("strategy", "opening_is_winning", "strategy"),
    ("strategy", "minimal_winning_opening", "strategy"),
    ("strategy", "_exhaustive", "strategy"),
    ("strategy", "exhaustive_winner", "strategy"),
    ("strategy", "analyze", "strategy"),
    ("strategy", "auto_play", "strategy"),
    ("permission", "weakly_permitted", "permission"),
    ("permission", "game_weakly_permitted", "permission"),
    ("permission", "check_obligation_permission", "permission"),
)
LAYERS = ("dsl", "model", "engine", "game", "strategy", "permission")
ITEM_SPAN = "bench.item"

# A number kept on the span, read from the call's arguments or result.
_NOTES = {
    "dsl.parse_theory": lambda args, result: len(args[0]),
    "strategy.analyze": lambda args, result: result.states_explored,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.layer_of = {ITEM_SPAN: "bench"}
        self.absent: list[str] = []

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
        stack.append(len(spans))
        spans.append(record)
        note = _NOTES.get(name)
        record[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()
        if note is not None:
            record[4] = note(args, result)
        return result

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "trialogic" or n.startswith("trialogic.")]
        for module_name, function, layer in BOUNDARIES:
            name = f"{module_name}.{function}"
            home = sys.modules.get(f"trialogic.{module_name}")
            original = getattr(home, function, None)
            if original is None:
                self.absent.append(name)
                continue
            self.layer_of[name] = layer
            wrapper = functools.wraps(original)(
                functools.partial(self.span, name, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def _durations(spans):
    return [end - start for _, _, start, end, _ in spans]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer counts and times per pass over the item list.

    A metric whose boundary function is missing from the program is
    left out rather than reported as zero.
    """
    spans = tracer.spans
    durations = _durations(spans)
    child_time = [0.0] * len(spans)
    for index, (_, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[index]

    def count(*names):
        wanted = set(names)
        return sum(1 for span in spans if span[0] in wanted) / passes

    def inclusive(*names):
        """Time inside the named spans, counting a span nested in
        another of the same set once."""
        wanted = set(names)
        total = 0.0
        for index, span in enumerate(spans):
            if span[0] not in wanted:
                continue
            parent = span[1]
            while parent >= 0 and spans[parent][0] not in wanted:
                parent = spans[parent][1]
            if parent < 0:
                total += durations[index]
        return total / passes

    def note_sum(name):
        return sum(span[4] or 0 for span in spans if span[0] == name) / passes

    tables = count("engine.compute_conclusions")
    engine_s = inclusive("engine.compute_conclusions")
    requests = count("game.conclusions_for")
    computed_on_request = sum(
        1 for span in spans
        if span[0] == "engine.compute_conclusions" and span[1] >= 0
        and spans[span[1]][0] == "game.conclusions_for") / passes
    parse_s = inclusive("dsl.parse_theory")
    moves = ("game.apply_move", "game.legal_move", "game.open_game")
    permission = ("permission.weakly_permitted",
                  "permission.game_weakly_permitted",
                  "permission.check_obligation_permission")
    derived = {
        "engine.tables": (("engine.compute_conclusions",), lambda: tables),
        "engine.s": (("engine.compute_conclusions",), lambda: engine_s),
        "engine.ms_per_table": (("engine.compute_conclusions",),
                                lambda: engine_s * 1000 / tables
                                if tables else 0.0),
        "game.table_requests": (("game.conclusions_for",), lambda: requests),
        "game.cache_hit_ratio": (
            ("game.conclusions_for", "engine.compute_conclusions"),
            lambda: 1 - computed_on_request / requests if requests else 0.0),
        "game.claim_checks": (
            ("game.claim_established", "game.claim_refuted"),
            lambda: count("game.claim_established", "game.claim_refuted")),
        "game.adjudications": (("game.adjudicate_pools",),
                               lambda: count("game.adjudicate_pools")),
        "game.adjudicate_s": (("game.adjudicate_pools",),
                              lambda: inclusive("game.adjudicate_pools")),
        "strategy.minimal_opening_s": (
            ("strategy.minimal_winning_opening",),
            lambda: inclusive("strategy.minimal_winning_opening")),
        "strategy.exhaustive_s": (("strategy._exhaustive",),
                                  lambda: inclusive("strategy._exhaustive")),
        "strategy.states_explored": (("strategy.analyze",),
                                     lambda: note_sum("strategy.analyze")),
        "game.moves_checked": (moves, lambda: count(*moves)),
        "game.move_s": (moves, lambda: inclusive(*moves)),
        "strategy.auto_play_s": (("strategy.auto_play",),
                                 lambda: inclusive("strategy.auto_play")),
        "permission.s": (permission, lambda: inclusive(*permission)),
        "dsl.parse_theory.s": (("dsl.parse_theory",), lambda: parse_s),
        "dsl.bytes_per_s": (("dsl.parse_theory",),
                            lambda: note_sum("dsl.parse_theory") / parse_s
                            if parse_s else 0.0),
        "dsl.parse_moves.s": (("game.parse_moves",),
                              lambda: inclusive("game.parse_moves")),
        "model.validate.s": (
            ("model.validate_setup", "model.validate_theory"),
            lambda: inclusive("model.validate_setup",
                              "model.validate_theory")),
    }
    absent = set(tracer.absent)
    metrics = {name: compute() for name, (sources, compute)
               in derived.items() if not absent.intersection(sources)}

    self_time = dict.fromkeys(LAYERS, 0.0)
    for index, span in enumerate(spans):
        layer = tracer.layer_of[span[0]]
        if layer in self_time:
            self_time[layer] += durations[index] - child_time[index]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer] / passes
    return metrics
