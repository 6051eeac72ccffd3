"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of the ``nearvec`` modules
(plus the few private boundaries named in ``EXTRA_SPANS``) and rebinds
every module attribute that refers to a wrapped function, because ``cli``,
``canonical`` and the benchmark's own ``pipeline`` import by name.  A span
records name, start, end, parent span and op; a layer's self time is its
span's duration minus the time its child spans cover.  Per-element hot
paths only count calls (``COUNT_ONLY``), so their time stays in the
caller's self time.  Spans stay in memory until ``write``.
"""

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
from time import perf_counter

MODULES = ("galois", "nearfield", "mult_auto", "nvspace", "canonical", "complexify", "serialize", "cli")

# (module, dotted attribute) -> metric name prefix; counted, never spanned
COUNT_ONLY = {
    ("nearfield", "induced_add"): "nearfield.induced_add",
    ("nvspace", "SpaceSpec.add"): "nvspace.SpaceSpec.add",
    ("nvspace", "SpaceSpec.scale"): "nvspace.SpaceSpec.scale",
    ("mult_auto", "PermAuto.__init__"): "mult_auto.PermAuto",
    ("nvspace", "_FiniteTables.quasi_kernel"): "nvspace.qk_sweep",
}
# private boundaries that carry a layer's work
EXTRA_SPANS = {
    ("cli", "_emit"): "cli.emit",
    ("nvspace", "_FiniteTables.__init__"): "nvspace.sweep_tables",
}

# (metric, unit, workloads predicted nonzero, workloads predicted zero)
LAYER_METRICS = [
    ("galois.gf_build.calls", "count", ("gf-sweep", "dickson-twist", "cli-calls"), ()),
    ("galois.gf_build.self_s", "s", ("cli-calls",), ()),
    ("galois.gf_build.calls_per_field", "count", ("gf-sweep", "dickson-twist", "cli-calls"), ()),
    ("galois.unit_classification.self_s", "s", ("cli-calls",), ()),
    ("nearfield.induced_add.calls", "count", ("gf-sweep", "dickson-twist"), ()),
    ("nearfield.distributive_elements.self_s", "s", ("dickson-twist", "cli-calls"), ("gf-sweep",)),
    ("nearfield.is_nearfield_automorphism.calls", "count", ("dickson-twist",), ()),
    ("nearfield.is_nearfield_automorphism.self_s", "s", ("dickson-twist",), ()),
    ("nearfield.scalar_group_axiom_check.self_s", "s", ("cli-calls",), ()),
    ("mult_auto.enumerate_mult_autos.calls", "count", ("gf-sweep", "dickson-twist"), ()),
    ("mult_auto.enumerate_mult_autos.self_s", "s", ("dickson-twist",), ()),
    ("mult_auto.compose.calls", "count", ("gf-sweep", "dickson-twist"), ()),
    ("mult_auto.compose.self_s", "s", ("dickson-twist",), ()),
    ("mult_auto.same_addition.calls", "count", ("gf-sweep", "dickson-twist"), ()),
    ("mult_auto.PermAuto.constructed", "count", ("dickson-twist",), ("gf-sweep",)),
    ("nvspace.quasi_kernel_bruteforce.self_s", "s", ("gf-sweep", "dickson-twist"), ()),
    ("nvspace.materialize_quasi_kernel.self_s", "s", ("gf-sweep", "dickson-twist", "cli-calls"), ()),
    ("nvspace.is_regular_bruteforce.self_s", "s", ("gf-sweep", "dickson-twist"), ()),
    ("nvspace.compatible.self_s", "s", ("gf-sweep", "dickson-twist"), ()),
    ("nvspace.nvs_axiom_check.self_s", "s", ("gf-sweep", "dickson-twist", "cli-calls"), ()),
    ("nvspace.anchored_add.self_s", "s", ("gf-sweep", "dickson-twist"), ()),
    ("nvspace.decomposition_classes.self_s", "s", ("gf-sweep", "dickson-twist"), ()),
    ("nvspace.SpaceSpec.scale.calls", "count", ("gf-sweep", "dickson-twist"), ()),
    ("nvspace.SpaceSpec.add.calls", "count", ("gf-sweep", "dickson-twist"), ()),
    ("nvspace.qk_sweeps_per_spec", "count", ("gf-sweep", "dickson-twist"), ()),
    ("nvspace.brute.pairs_checked", "count", ("gf-sweep", "dickson-twist"), ()),
    ("nvspace.qk.member_ratio", "ratio", ("gf-sweep", "dickson-twist"), ()),
    ("canonical.is_multiplicative.self_s", "s", ("gf-sweep", "dickson-twist"), ()),
    ("canonical.verify_iso.self_s", "s", ("gf-sweep", "dickson-twist"), ()),
    ("canonical.is_multiplicative.certified_ratio", "ratio", ("gf-sweep", "dickson-twist"), ()),
    ("complexify.self_s", "s", ("cli-calls",), ("gf-sweep", "dickson-twist")),
    ("serialize.spec_from_json.self_s", "s", ("gf-sweep", "dickson-twist", "cli-calls"), ()),
    ("cli.import_s", "s", ("cli-calls",), ("gf-sweep", "dickson-twist")),
    ("cli.emit_s", "s", ("cli-calls",), ("gf-sweep", "dickson-twist")),
    ("trace.overhead_ratio", "ratio", (), ()),
    ("scaling.gf_build.q_exp", "exponent", ("cli-calls",), ()),
    ("scaling.materialize.q_exp", "exponent", ("cli-calls",), ()),
    ("scaling.sweep_tables.q_exp", "exponent", ("gf-sweep",), ()),
    ("scaling.sweep_tables.d_exp", "exponent", ("gf-sweep",), ()),
    ("scaling.brute_qk.q_exp", "exponent", ("gf-sweep",), ()),
    ("scaling.brute_qk.d_exp", "exponent", ("gf-sweep",), ()),
    ("scaling.materialize.d_exp", "exponent", ("gf-sweep",), ()),
]


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


def _spec_tag(args):
    """(q, d) of the first space argument over a finite base, else None."""
    from nearvec.nvspace import SpaceSpec

    for a in args[:2]:
        if isinstance(a, SpaceSpec):
            base = a.base
            return (base.order(), a.dim) if base.is_finite else None
    return None


def _tag(name, args):
    if name == "galois.gf_build":
        return (args[0], args[1])
    return _spec_tag(args)


class Tracer:
    """Spans and counts of one traced run; ``install`` before the traced
    ops and ``uninstall`` after them."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, op, tag)
        self.stack = []  # [span index, child seconds]
        self.stats = {}
        self.op = -1
        self.op_labels = []
        self.pairs_checked = 0
        self.qk_members = 0
        self.vectors_swept = 0
        self.certified = 0
        self.certificates = 0
        self._patched = []

    def begin_op(self, label):
        self.op = len(self.op_labels)
        self.op_labels.append(label)

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _span(self, name, fn):
        tracer = self
        stat = self._stat(name)
        after = self._after_multiplicative if name == "canonical.is_multiplicative" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.self_s += duration - frame[1]
                tracer.spans[index] = (name, t0, t1, parent, tracer.op, _tag(name, args))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, name, fn):
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_sweep(self, name, fn):
        tracer = self
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(tables):
            stat.calls += 1
            result = fn(tables)
            tracer.pairs_checked += tables.q ** (tables.d + 2)
            tracer.vectors_swept += tables.q**tables.d
            tracer.qk_members += len(result)
            return result

        return wrapper

    def _after_multiplicative(self, result):
        _, certs = result
        self.certificates += len(certs)
        self.certified += sum(1 for a in certs.values() if a is not None)

    def install(self, extra_modules=()):
        """Wrap and rebind; ``extra_modules`` are other modules that
        imported nearvec names (the benchmark's own)."""
        mods = {m: importlib.import_module("nearvec." + m) for m in MODULES}
        holders = [sys.modules["nearvec"], *mods.values(), *extra_modules]
        replace = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and (short, attr) not in COUNT_ONLY
                ):
                    replace[fn] = self._span(f"{short}.{attr}", fn)
        for (short, attr), name in EXTRA_SPANS.items():
            self._patch_attr(mods[short], attr, self._span(name, _resolve(mods[short], attr)))
        for (short, attr), name in COUNT_ONLY.items():
            fn = _resolve(mods[short], attr)
            if attr == "_FiniteTables.quasi_kernel":
                wrapped = self._count_sweep(name, fn)
            else:
                wrapped = self._count(name, fn)
            if "." in attr:
                self._patch_attr(mods[short], attr, wrapped)
            else:
                replace[fn] = wrapped
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                if inspect.isfunction(val) and val in replace:
                    self._patched.append((holder, attr, val))
                    setattr(holder, attr, replace[val])

    def _patch_attr(self, mod, dotted, wrapped):
        owner = mod
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, op, tag."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"ops": self.op_labels}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- per-layer metrics --

    def calls(self, name):
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_s(self, name):
        st = self.stats.get(name)
        return st.self_s if st else 0.0

    def metrics(self, ops, overhead_ratio, import_s, series_ops=(), sweep_fits=False):
        fields = {tag for name, _, _, _, _, tag in self.spans if name == "galois.gf_build"}
        gf_calls = self.calls("galois.gf_build")
        complexify_self = sum(st.self_s for name, st in self.stats.items() if name.startswith("complexify."))
        values = {
            "galois.gf_build.calls": gf_calls,
            "galois.gf_build.calls_per_field": gf_calls / len(fields) if fields else 0.0,
            "nearfield.induced_add.calls": self.calls("nearfield.induced_add"),
            "mult_auto.PermAuto.constructed": self.calls("mult_auto.PermAuto"),
            "nvspace.SpaceSpec.scale.calls": self.calls("nvspace.SpaceSpec.scale"),
            "nvspace.SpaceSpec.add.calls": self.calls("nvspace.SpaceSpec.add"),
            "nvspace.qk_sweeps_per_spec": self.calls("nvspace.qk_sweep") / ops if ops else 0.0,
            "nvspace.brute.pairs_checked": self.pairs_checked,
            "nvspace.qk.member_ratio": self.qk_members / self.vectors_swept if self.vectors_swept else 0.0,
            "canonical.is_multiplicative.certified_ratio": (
                self.certified / self.certificates if self.certificates else 0.0
            ),
            "complexify.self_s": complexify_self,
            "cli.import_s": import_s,
            "cli.emit_s": self.self_s("cli.emit"),
            "trace.overhead_ratio": overhead_ratio,
        }
        values.update(self._scaling(series_ops, sweep_fits))
        out = {}
        for name, unit, _, _ in LAYER_METRICS:
            if name in values:
                value = values[name]
            elif name.endswith(".calls"):
                value = self.calls(name[: -len(".calls")])
            elif name.endswith(".self_s"):
                value = self.self_s(name[: -len(".self_s")])
            else:
                raise KeyError(name)
            out[name] = {"value": value, "unit": unit}
        return out

    def _self_by_tag(self, name, ops=None):
        """Self seconds of ``name`` summed per tag, over all ops or the
        given op indexes.  Self time is recomputed from the spans."""
        child = {}
        for name_, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for index, (name_, start, end, _, op, tag) in enumerate(self.spans):
            if name_ != name or tag is None or (ops is not None and op not in ops):
                continue
            total, n = out.get(tag, (0.0, 0))
            out[tag] = (total + end - start - child.get(index, 0.0), n + 1)
        return {tag: total / n for tag, (total, n) in out.items()}

    def _scaling(self, series_ops, sweep_fits):
        """Cost exponents fitted on mean self time per size class; 0 where
        the workload has no such series.

        From the ops in ``series_ops`` (the cli-calls GF(64)..GF(512) qk
        series): gf_build ~ q^a and materialization ~ q^a.  With
        ``sweep_fits`` (the gf-sweep spaces): sweep tables ~ q^a d^b,
        brute-force quasi-kernel and materialization ~ q^(a + b d)."""
        out = {}
        series = set(series_ops)
        if series:
            gf = self._self_by_tag("galois.gf_build", series)
            out["scaling.gf_build.q_exp"] = _fit([[math.log(p**n)] for p, n in gf], list(gf.values()))[0]
            mat = self._self_by_tag("nvspace.materialize_quasi_kernel", series)
            out["scaling.materialize.q_exp"] = _fit([[math.log(q)] for q, _ in mat], list(mat.values()))[0]
        if sweep_fits:
            tables = self._self_by_tag("nvspace.sweep_tables")
            a, b = _fit([[math.log(q), math.log(d)] for q, d in tables], list(tables.values()))
            out["scaling.sweep_tables.q_exp"], out["scaling.sweep_tables.d_exp"] = a, b
            brute = self._self_by_tag("nvspace.quasi_kernel_bruteforce")
            a, b = _fit([[math.log(q), d * math.log(q)] for q, d in brute], list(brute.values()))
            out["scaling.brute_qk.q_exp"], out["scaling.brute_qk.d_exp"] = a, b
            mat = self._self_by_tag("nvspace.materialize_quasi_kernel")
            out["scaling.materialize.d_exp"] = _fit(
                [[math.log(q), d * math.log(q)] for q, d in mat], list(mat.values())
            )[1]
        return {name: out.get(name, 0.0) for name, _, _, _ in LAYER_METRICS if name.startswith("scaling.")}


def _resolve(mod, dotted):
    obj = mod
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _fit(features, seconds):
    """Least squares for log(seconds) = c + sum(k_i * feature_i); returns
    the k_i.  Needs more points than coefficients."""
    rows = [[1.0, *f] for f in features]
    ys = [math.log(s) for s in seconds]
    k = len(rows[0])
    if len(rows) < k:
        return [0.0] * (k - 1)
    ata = [[sum(r[i] * r[j] for r in rows) for j in range(k)] for i in range(k)]
    aty = [sum(r[i] * y for r, y in zip(rows, ys)) for i in range(k)]
    # Gaussian elimination with partial pivoting
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(ata[r][col]))
        ata[col], ata[pivot] = ata[pivot], ata[col]
        aty[col], aty[pivot] = aty[pivot], aty[col]
        for r in range(col + 1, k):
            f = ata[r][col] / ata[col][col]
            for c in range(col, k):
                ata[r][c] -= f * ata[col][c]
            aty[r] -= f * aty[col]
    coef = [0.0] * k
    for r in reversed(range(k)):
        coef[r] = (aty[r] - sum(ata[r][c] * coef[c] for c in range(r + 1, k))) / ata[r][r]
    return coef[1:]
