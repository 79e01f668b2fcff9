"""Outside-in tracing of the program's layers.

The tracer times calls into each module's public functions without editing
the program: it replaces the module and class attributes through which the
program looks those functions up with timing wrappers, and puts the
originals back afterwards.  A function imported by name into another module
is wrapped there too, since that is where its caller finds it.

Spans are aggregated in memory per name: call count, total time and self
time (a span's duration minus the durations of the traced spans it
encloses).  A target that no longer exists, for example because a later
change inlined it, is skipped and reads as zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

# (span name, module, attribute path).  The attribute path is either a
# module-level function or ``Class.method``.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("lattice.parse", "talarescore.lattice", "loads_lattice"),
    ("lattice.viterbi", "talarescore.lattice", "viterbi_acoustic"),
    ("model.train", "talarescore.model", "train_model"),
    ("model.dump", "talarescore.model", "dumps_model"),
    ("model.load", "talarescore.model", "loads_model"),
    ("static_prior.prob", "talarescore.static_prior", "TalaIndependentPrior.prob"),
    ("static_prior.posterior", "talarescore.static_prior", "TalaPosteriorTable.posterior"),
    ("static_prior.distribution", "talarescore.static_prior", "NGramPrior.distribution"),
    ("dynamic_model.update", "talarescore.dynamic_model", "update"),
    ("dynamic_model.predict", "talarescore.dynamic_model", "predict"),
    ("fusion.jsd", "talarescore.fusion", "jsd"),
    ("fusion.confidence", "talarescore.fusion", "acoustic_confidence"),
    ("fusion.lambda", "talarescore.fusion", "lambda_k"),
    ("fusion.combine", "talarescore.fusion", "combine"),
    ("rescorer.rescore", "talarescore.rescorer", "rescore"),
    ("rescorer.select", "talarescore.rescorer", "viterbi_expanded"),
    ("eval.ser", "talarescore.eval", "ser"),
)


class Tracer:
    """Aggregated spans of wrapped calls; active inside ``with tracer.installed():``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        # Child time accumulated by each open span; the bottom entry belongs
        # to the untraced caller.
        self._open: list[list[float]] = [[0.0]]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        open_spans, clock = self._open, self.clock
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                open_spans[-1][0] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - children[0]

        return traced

    def install(self, targets: tuple[tuple[str, str, str], ...] = LAYER_TARGETS) -> None:
        for name, module_name, path in targets:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".", 1)
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(attr) if isinstance(cls, type) else None
                if callable(fn):
                    self._set(cls, attr, self.wrap(name, fn))
                continue
            fn = getattr(module, path, None)
            if not callable(fn):
                continue
            wrapped = self.wrap(name, fn)
            package = module_name.split(".", 1)[0]
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or (mod_name != package and not mod_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets: tuple[tuple[str, str, str], ...] = LAYER_TARGETS) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)
