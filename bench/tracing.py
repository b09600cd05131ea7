"""Per-layer measurement from outside the library.

A :class:`Tracer` wraps the public functions named in :data:`TARGETS` and
records one span per call: name, start, end, parent span and the id of the
operation it belongs to.  Every binding of a target across ``eulerpencil``'s
modules is found by object identity, so ``curves.ap_count`` and the
``ap_count`` that ``stats`` imported are both recorded.  A target that a
later version removes reads as zero calls.

:func:`import_layers` measures interpreter start and import cost in fresh
interpreters, using ``python -X importtime``.
"""

from __future__ import annotations

import csv
import functools
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: metric prefix -> (module, attribute path) of the function to wrap
TARGETS = {
    "curves.ap_count": ("eulerpencil.curves", "ap_count"),
    "curves.good_primes": ("eulerpencil.curves", "good_primes"),
    "exactmath.QuadExt.init": ("eulerpencil.exactmath", "QuadExt.__init__"),
    "matching.canonical_basepoint": ("eulerpencil.matching", "canonical_basepoint"),
    "matching.canonical_match_exact": ("eulerpencil.matching", "canonical_match_exact"),
    "matching.euler_match_verify": ("eulerpencil.matching", "euler_match_verify"),
    "matching.basepoint_solve": ("eulerpencil.matching", "basepoint_solve"),
    "pencil.spectral_poly": ("eulerpencil.pencil", "spectral_poly"),
    "pencil.resolvent_tr_det": ("eulerpencil.pencil", "resolvent_tr_det"),
    "continuum.universality_integral": ("eulerpencil.continuum", "universality_integral"),
    "continuum.dirichlet_L_chi4": ("eulerpencil.continuum", "dirichlet_L_chi4"),
    "stats.delta_p_series": ("eulerpencil.stats", "delta_p_series"),
    "stats.sato_tate_report": ("eulerpencil.stats", "sato_tate_report"),
    "stats.accumulation_means": ("eulerpencil.stats", "accumulation_means"),
    "cli.emit": ("eulerpencil.cli", "emit"),
}

#: target -> attribute of its return value that is summed as a work count
RESULT_COUNTS = {"continuum.universality_integral": "evaluations"}

#: acceptance.criterion_<n>_<name>, wrapped under acceptance.criterion_<nn>
CRITERION = re.compile(r"criterion_(\d+)_\w+")
N_CRITERIA = 15


def _lookup(module: str, path: str):
    obj = sys.modules.get(module)
    for part in path.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
    return obj


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "eulerpencil" or name.startswith("eulerpencil."))]


class Tracer:
    """Records spans around the target functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_attr = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count_attr is not None:
                self.counts[f"{name}.{count_attr}"] += getattr(result, count_attr, 0)
            return result

        return traced

    def _targets(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every target that exists."""
        found = {}
        for name, (module, path) in TARGETS.items():
            obj = _lookup(module, path)
            if callable(obj):
                found[id(obj)] = (obj, self._wrap(name, obj))
        acceptance = sys.modules.get("eulerpencil.acceptance")
        for attr, obj in vars(acceptance).items() if acceptance else ():
            match = CRITERION.fullmatch(attr)
            if match and callable(obj):
                name = f"acceptance.criterion_{int(match.group(1)):02d}"
                found[id(obj)] = (obj, self._wrap(name, obj))
        return found

    def install(self) -> None:
        """Replace every binding of every target in the package's modules,
        in lists they hold (such as ``acceptance.ALL_CRITERIA``) and in
        their classes (such as ``QuadExt.__init__``)."""
        targets = self._targets()

        def patch_dict(owner, namespace):
            for key, val in list(namespace.items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(owner, key, hit[1])
                    self._patches.append((owner, key, val))
                elif isinstance(val, list):
                    for i, item in enumerate(val):
                        hit = targets.get(id(item))
                        if hit is not None and hit[0] is item:
                            val[i] = hit[1]
                            self._patches.append((val, i, item))

        for mod in _package_modules():
            patch_dict(mod, vars(mod))
            for val in list(vars(mod).values()):
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    patch_dict(val, vars(val))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def layer_totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(self seconds, inclusive seconds, calls) per span name.

        A span's self time is its duration minus the time its direct child
        spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, op])


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass over the workload's operation list."""
    self_s, total_s, calls = tracer.layer_totals()
    metrics = {}
    for name in TARGETS:
        if name == "cli.emit":
            metrics["cli.emit_ms"] = (1e3 * self_s[name] / passes, "ms")
            continue
        metrics[f"{name}.calls"] = (calls[name] / passes, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / passes, "s")
    for name, attr in RESULT_COUNTS.items():
        metrics[f"{name}.{attr}"] = (tracer.counts[f"{name}.{attr}"] / passes, "count")
    for n in range(1, N_CRITERIA + 1):
        name = f"acceptance.criterion_{n:02d}"
        metrics[f"{name}.s"] = (total_s[name] / passes, "s")
    return metrics


def _run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120, check=True)


def _importtime_ms(stderr: str) -> tuple[float, float]:
    """(total ms importing the eulerpencil package and its cli, ms of continuum).

    Lines read ``import time: self [us] | cumulative | name``; nesting
    indents the name, so the least indented ``eulerpencil`` lines are the
    top-level imports that ``import eulerpencil.cli`` triggered.
    """
    rows = []
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2]
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    top = min(indent for indent, _, _ in rows)
    total_us = sum(us for indent, name, us in rows
                   if indent == top and name.split(".")[0] == "eulerpencil")
    continuum_us = sum(us for _, name, us in rows if name == "eulerpencil.continuum")
    return total_us / 1e3, continuum_us / 1e3


def import_layers(env: dict, probes: int = 3) -> dict[str, tuple[float, str]]:
    """Interpreter start, package import and parser build, in fresh processes.

    Each figure is the median over ``probes`` interpreters.
    """
    interp, imports, continuum, scipy_loaded, parser_ms = [], [], [], [], []
    probe = ("import sys, time; import eulerpencil.cli as c; "
             "t = time.perf_counter(); c.build_parser(); "
             "print(int('scipy' in sys.modules), time.perf_counter() - t)")
    for _ in range(probes):
        start = time.perf_counter()
        _run([sys.executable, "-c", "pass"], env)
        interp.append(1e3 * (time.perf_counter() - start))
        done = _run([sys.executable, "-X", "importtime", "-c", probe], env)
        total_ms, continuum_ms = _importtime_ms(done.stderr)
        imports.append(total_ms)
        continuum.append(continuum_ms)
        loaded, parser_s = done.stdout.split()
        scipy_loaded.append(int(loaded))
        parser_ms.append(1e3 * float(parser_s))
    return {
        "cli.interpreter_ms": (statistics.median(interp), "ms"),
        "cli.import_ms": (statistics.median(imports), "ms"),
        "continuum.import_ms": (statistics.median(continuum), "ms"),
        "cli.scipy_loaded": (max(scipy_loaded), "count"),
        "cli.build_parser_ms": (statistics.median(parser_ms), "ms"),
    }
