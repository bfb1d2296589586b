"""Outside-in tracer: spans around calls into fbmlocal's public functions.

Nothing in ``src/`` is changed. Each public function (module-level, name
without a leading underscore, defined in that module) is wrapped once and
the wrapper is bound at *every* site that holds the original object: the
defining module, every fbmlocal module that imported it by name, and the
package namespace. ``scipy.integrate.quad`` is wrapped where ``sobolev``
binds it. Spans record name, start, end and parent id, live in memory and
are reduced to per-layer figures when the traced pass ends.
"""

from __future__ import annotations

import functools
import threading
import time

MODULES = ("kernels", "geometry", "sobolev", "experiments", "sampler", "acceptance", "cli")

# spans whose call counts and self times are reported
CALLS = (
    "sobolev.quad", "sobolev.sobolev_inner", "sobolev.lemma22_dual_norm", "kernels.gram",
    "experiments.r_h_dual_gram", "experiments.theorem21_check", "geometry.canonical_correlations",
    "sampler.sample_fbm_increments",
)
SELF_TIMES = (
    "sobolev.quad", "sobolev.sobolev_inner", "sobolev.lemma22_dual_norm", "sobolev.fbm_pairing_time",
    "kernels.gram", "kernels.cross_gram", "experiments.r_h_dual_gram", "geometry.canonical_correlations",
    "geometry.mutual_information_det", "sampler.sample_fbm_increments", "sampler.empirical_mi_check",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent_index]
        self.notes = []  # per span: small summary of its arguments and result
        self._local = threading.local()
        self._patched = []  # (namespace, attr, original)

    # -- installation -------------------------------------------------------

    def install(self, package):
        mods = {m: getattr(package, m) for m in MODULES}
        originals = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{name}.{attr}", obj))
        quad = mods["sobolev"].quad
        originals[id(quad)] = (quad, self._wrap("sobolev.quad", quad))
        for ns in [package, *mods.values()]:
            for attr, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def _wrap(self, span_name, fn):
        spans, notes, local = self.spans, self.notes, self._local

        @functools.wraps(fn)
        def traced(*a, **kw):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = len(spans)
            spans.append([span_name, time.perf_counter(), None, stack[-1] if stack else -1])
            notes.append(None)
            stack.append(idx)
            try:
                out = fn(*a, **kw)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            notes[idx] = _note(span_name, a, kw, out)
            return out

        return traced

    # -- reduction ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce the spans of one traced pass to the benchmark's per-layer figures."""
    selfs = tracer.self_times()
    calls, self_s = {}, {}
    for (name, *_), st in zip(tracer.spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st

    out = {f"{fn}.calls": calls.get(fn, 0) for fn in CALLS}
    out.update({f"{fn}.self_s": self_s.get(fn, 0.0) for fn in SELF_TIMES})
    out["kernels.levy.self_s"] = sum(v for k, v in self_s.items() if k.startswith("kernels.levy_"))
    out["experiments.self_s"] = sum(v for k, v in self_s.items() if k.startswith("experiments."))

    lemma_grams, dual_h, seen_tables, gram_large = set(), set(), set(), 0.0
    counts = dict.fromkeys(
        ("kernels.gram.entries", "geometry.dim3", "geometry.rank_deficient", "geometry.ill_conditioned",
         "sampler.increments", "sampler.blocks", "sampler.fft_points", "sampler.write_samples.bytes",
         "experiments.scan_rows", "experiments.rows_skipped"),
        0,
    )
    for (name, *_), st, note in zip(tracer.spans, selfs, tracer.notes):
        if note is None:
            continue
        if name == "kernels.gram":
            counts["kernels.gram.entries"] += note * note
            if note >= 1024:
                gram_large += st
        elif name == "geometry.canonical_correlations":
            na, nb, deficient, ill = note
            counts["geometry.dim3"] += na**3 + nb**3
            counts["geometry.rank_deficient"] += deficient
            counts["geometry.ill_conditioned"] += ill
        elif name == "sobolev.lemma22_dual_norm":
            lemma_grams.add(note)
        elif name == "experiments.r_h_dual_gram":
            dual_h.add(note)
        elif name == "sampler.sample_fbm_increments":
            m, n = note
            blocks = [min(64, m - i) for i in range(0, m, 64)]
            counts["sampler.increments"] += m * n
            counts["sampler.blocks"] += len(blocks)
            # circulant size is 4n at the first embedding attempt; two paths per transform
            counts["sampler.fft_points"] += sum((p + 1) // 2 for p in blocks) * 4 * n
        elif name == "sampler.write_samples":
            counts["sampler.write_samples.bytes"] += note
        elif name.startswith("experiments."):
            for table in note:
                if id(table) not in seen_tables:
                    seen_tables.add(id(table))  # the notes keep each table alive, so ids stay unique
                    counts["experiments.scan_rows"] += len(table.rows)
                    counts["experiments.rows_skipped"] += sum(r.skipped for r in table.rows)
    out.update(counts)
    out["kernels.gram_large.self_s"] = gram_large
    # distinct (s, T, n) Toeplitz Grams per lemma-2.2 build; 0 when nothing was built
    n_lemma = calls.get("sobolev.lemma22_dual_norm", 0)
    out["sobolev.lemma22_gram_reuse"] = len(lemma_grams) / n_lemma if n_lemma else 0.0
    out["experiments.r_h_dual_gram.distinct_h"] = len(dual_h)
    return out


def _note(name, a, kw, res):
    """The small facts a span's computed counts need; arrays are not kept."""
    if name == "kernels.gram":
        return len(_arg(a, kw, 0, "basis").s)
    if name == "geometry.canonical_correlations":
        na, nb = _arg(a, kw, 0, "ga").shape[0], _arg(a, kw, 1, "gb").shape[0]
        return na, nb, int(res.rank_a < na or res.rank_b < nb), int(bool(res.ill_conditioned))
    if name == "sobolev.lemma22_dual_norm":
        return (_arg(a, kw, 1, "s"), _arg(a, kw, 3, "truncation_t", 64.0), _arg(a, kw, 4, "n", 128))
    if name == "experiments.r_h_dual_gram":
        return _arg(a, kw, 0, "h")
    if name == "sampler.sample_fbm_increments":
        return res.m, res.n
    if name == "sampler.write_samples":
        return _arg(a, kw, 0, "paths").data.size * 8
    if name.startswith("experiments."):
        return [t for t in (res, getattr(res, "table", None)) if type(t).__name__ == "ScanTable"]
    return None


def _arg(a, kw, pos, key, default=None):
    if len(a) > pos:
        return a[pos]
    return kw.get(key, default)
