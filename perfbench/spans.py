"""Span tracing around the package's public functions, from the outside.

`Tracer.install(hc)` replaces each listed function or method by a wrapper
in every `homcount.*` namespace that binds the same object (modules import
some helpers by name, e.g. `counting` and `surfaces` import
`close_under_product`), and `uninstall()` puts the originals back.

A span wrapper records (name, start, end, parent) in memory; a count
wrapper only counts calls, for functions called once per element where a
span would cost more than the work (`mcg_apply`, `schur_invariant`, ...).
Per-element methods (`FiniteGroup.mul`, `MCGGenerator.apply`,
`RsatIF.eval`) are not wrapped; their volume is computed from the inputs
(tuples = |G|^g, words = |I|^width).
"""

import functools
import gzip
import sys
import time

SPAN, COUNT = "span", "count"


def _heegaard_tuples(args, kwargs, result):
    h, G = args[0], args[1]
    return {"tuples": G.order ** h.genus}


def _orbit_visited(args, kwargs, result):
    return {"visited": result.visited}


def _rsat_words(args, kwargs, result):
    inst = args[0]
    return {"words": len(inst.init) ** inst.width}


def _zsat_words(args, kwargs, result):
    inst = args[0]
    return {"words": (1 + len(inst.alphabet.init)) ** inst.width}


def _dp_peak(args, kwargs, result):
    stats = kwargs.get("stats", args[4] if len(args) > 4 else None)
    return {"peak_states": stats.max_states} if stats is not None else {}


# (module, attribute path, metric name, kind, volume hook)
TARGETS = [
    ("groups", "close_under_product", None, SPAN, None),
    ("groups", "subgroup_lattice", None, SPAN, None),
    ("groups", "automorphisms", None, SPAN, None),
    ("groups", "find_isomorphism", None, SPAN, None),
    ("groups", "load_group", None, SPAN, None),
    ("counting", "count_homs", None, SPAN, None),
    ("counting", "count_surjections", None, SPAN, None),
    ("counting", "quotient_counts_via_inversion", None, SPAN, None),
    ("counting", "dp_count_homs", None, SPAN, _dp_peak),
    ("counting", "narrow_ordering", None, SPAN, None),
    ("complexes", "greedy_ordering", None, SPAN, None),
    ("complexes", "ordering_width", None, SPAN, None),
    ("complexes", "presentation_from_complex", None, SPAN, None),
    ("surfaces", "heegaard_count", None, SPAN, _heegaard_tuples),
    ("surfaces", "mcg_apply", None, COUNT, None),
    ("surfaces", "orbit_report", None, SPAN, _orbit_visited),
    ("surfaces", "schur_invariant", None, COUNT, None),
    ("surfaces", "gluing_h1", None, SPAN, None),
    ("circuits", "reduce_pipeline", None, SPAN, None),
    ("circuits", "BooleanCircuit.count_sat", None, SPAN, None),
    ("circuits", "Rsat1.count", None, SPAN, None),
    ("circuits", "Rsat2.count", None, SPAN, None),
    ("circuits", "RsatIF.count", None, SPAN, _rsat_words),
    ("circuits", "PackedRsat4.count", None, SPAN, None),
    ("zsat", "compile_zsat", None, SPAN, None),
    ("zsat", "extend_to_rubik", None, COUNT, None),
    ("zsat", "ZsatInstance.count", None, SPAN, _zsat_words),
    ("zsat", "verify_gates", None, SPAN, None),
    ("gsets", "rubik_surjectivity_check", None, SPAN, None),
    ("gsets", "rubik_membership", None, COUNT, None),
    ("perms", "PermutationGroup._ensure_chain", "perms.PermutationGroup",
     SPAN, None),
    ("cli", "main", None, SPAN, None),
]

MODULES = ("groups", "perms", "gsets", "complexes", "counting", "circuits",
           "zsat", "surfaces", "cli")

# RsatIF.count under PackedRsat4.count is stage 4; its time and words are
# credited to the parent (the packed instance delegates to its inner one)
FOLD_INTO_PARENT = {"circuits.RsatIF.count": "circuits.PackedRsat4.count"}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, volumes]
        self.stack = []
        self.calls = {}        # count-only wrappers
        self.errors = {m: 0 for m in MODULES}
        self._last_error = None
        self._patches = []     # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, module, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(module, exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[4] = hook(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, module, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(module, exc)
                raise

        return wrapper

    def _error(self, module, exc):
        # an exception escaping several wrapped frames counts once
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[module] += 1

    # -- patching --------------------------------------------------------------

    def install(self, hc):
        mods = {k: v for k, v in sys.modules.items()
                if v is not None and (k == "homcount"
                                      or k.startswith("homcount."))}
        for module, path, metric, kind, hook in TARGETS:
            name = metric or "%s.%s" % (module, path)
            owner = getattr(hc, module)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            if kind == SPAN:
                wrapped = self._span_wrapper(name, module, original, hook)
            else:
                wrapped = self._count_wrapper(name, module, original)
            if len(parts) > 1:      # a method: the class is shared
                self._patch(owner, parts[-1], original, wrapped)
                continue
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Per span name: [self seconds, calls, summed volumes]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, vol) in enumerate(self.spans):
            own = end - start - child[i]
            if parent >= 0 and FOLD_INTO_PARENT.get(name) == \
                    self.spans[parent][0]:
                name = self.spans[parent][0]
            row = out.setdefault(name, [0.0, 0, {}])
            row[0] += own
            row[1] += 1
            for key, value in (vol or {}).items():
                if key.startswith("peak"):
                    row[2][key] = max(row[2].get(key, 0), value)
                else:
                    row[2][key] = row[2].get(key, 0) + value
        return out

    def dump(self, path):
        """Write every span as a tab-separated line: index, parent, name,
        start, end (seconds), volumes."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tparent\tname\tstart\tend\tvolumes\n")
            for i, (name, start, end, parent, vol) in enumerate(self.spans):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%s\n"
                         % (i, parent, name, start, end, vol or ""))
