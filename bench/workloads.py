"""The benchmark's workloads: shared set-up, one operation, and its check.

A workload draws the inputs of operation i from the seed and i alone, so
the same seed gives the same operations and the checks can draw them
again.  `run` is the timed part; `expect` recomputes the expected output
with `reference` (never with ordagg), with the laws that failed.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time

import gen
import reference as ref

MIX = (
    "fan_sugeno_sharp", "fan_sugeno_plain", "fan_sugeno_dual", "quantile_functional",
    "median", "sugeno_integral", "symmetric", "asymmetric", "ordinal_distance", "kyfan_norm",
)
ON_FUNCTION_SCALE = MIX[:5]


def _labels(size: int, labelled: bool):
    return gen.decimal_labels(size).__getitem__ if labelled else str


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


class ScoreWorkload:
    """One in-process library client scoring a new function per call
    against a measure and comms built once in set-up."""

    cycle = len(MIX)

    def __init__(self, seed: int, src: str, n: int, m_size: int, l_size: int,
                 half: int, labelled: bool, identity: bool):
        self.src = src
        self.seed = seed
        self.raw = gen.score_inputs(seed, n, m_size, l_size, half, labelled, identity)
        self.lab_m = _labels(m_size, labelled)
        self.lab_l = _labels(l_size, labelled)
        self.lab_h = _labels(half + 1, labelled)

    def import_s(self) -> float:
        """Import time of ordagg in a fresh interpreter, as it reports it."""
        code = ("import time; t = time.perf_counter(); import ordagg; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(self.src), check=True).stdout
        return float(out)

    def build(self) -> float:
        """Build the shared chains, measure and comms; returns the seconds taken."""
        t0 = time.perf_counter()
        import ordagg as o

        r = self.raw
        labels = gen.decimal_labels if r.labelled else (lambda size: None)
        self.ground = o.GroundSet(tuple(f"e{i}" for i in range(r.n)))
        self.m = o.Chain("m", r.m_size, labels(r.m_size))
        self.l = o.Chain("l", r.l_size, labels(r.l_size))
        self.r = o.ReflChain("r", r.half, labels(r.half + 1))
        self.mu = o.Measure(o.SetFamily.full(self.ground), self.m, dict(enumerate(r.mu)))
        self.ell = o.CommFn(self.m, self.l, r.ell)
        self.ell_pos = o.CommFn(self.m, self.r.positive_half(), r.ell_pos)
        carrier = self.r.as_chain()
        self.ell_minus = o.CommFn(self.m, carrier, r.ell_minus)
        self.ell_plus = o.CommFn(self.m, carrier, r.ell_plus)
        return time.perf_counter() - t0

    def setup_once(self) -> float:
        """One try of the set-up: a fresh import plus a build."""
        return self.import_s() + self.build()

    def draw(self, i: int):
        r = self.raw
        rng = gen.rng_for(self.seed, f"op:{i}:{r.n}:{r.m_size}:{r.l_size}:{r.half}")
        name = MIX[i % len(MIX)]
        shape = gen.SHAPES[i // len(MIX) % len(gen.SHAPES)]
        if name in ON_FUNCTION_SCALE:
            f = gen.draw_fn(rng, shape, r.n, 0, r.l_size - 1)
        elif name == "sugeno_integral":
            f = gen.draw_fn(rng, shape, r.n, 0, r.m_size - 1)
        else:
            f = gen.draw_fn(rng, shape, r.n, -r.half, r.half)
        g = gen.draw_fn(rng, "random", r.n, -r.half, r.half) if name == "ordinal_distance" else None
        p = rng.randrange(r.m_size) if name == "quantile_functional" else (r.m_size - 1) // 2
        return name, f, g, p

    def run(self, d) -> str:
        import ordagg as o

        name, f, g, p = d
        if name in ON_FUNCTION_SCALE:
            fn = o.LatticeFn(self.ground, self.l, f.values)
            if name == "fan_sugeno_sharp":
                iv = o.fan_sugeno(self.mu, fn, self.ell, o.SHARP)
            elif name == "fan_sugeno_plain":
                iv = o.fan_sugeno(self.mu, fn, self.ell, o.PLAIN)
            elif name == "fan_sugeno_dual":
                iv = o.fan_sugeno_dual(self.mu, fn, self.ell)
            elif name == "quantile_functional":
                iv = o.quantile_functional(self.mu, fn, p)
            else:
                iv = o.median(self.mu, fn, p)
            return o.format_interval(iv)
        if name == "sugeno_integral":
            return str(o.sugeno_integral(self.mu, o.LatticeFn(self.ground, self.m, f.values)))
        fn = o.LatticeFn(self.ground, self.r, f.values)
        if name == "symmetric":
            return o.format_rinterval(o.symmetric_fan_sugeno(self.mu, fn, self.ell_pos))
        if name == "asymmetric":
            return o.format_rinterval(
                o.asymmetric_fan_sugeno(self.mu, fn, self.ell_minus, self.ell_plus))
        if name == "ordinal_distance":
            other = o.LatticeFn(self.ground, self.r, g.values)
            return str(o.ordinal_distance(self.mu, self.ell_pos, fn, other))
        return str(o.kyfan_norm(self.mu, fn))

    def expect(self, d) -> tuple[str, list[str]]:
        """The reference output, and the laws the tests use that it breaks."""
        r = self.raw
        mu = r.mu.__getitem__
        name, f, g, p = d
        v = f.values
        bad = []
        if name in ("fan_sugeno_sharp", "fan_sugeno_plain"):
            want = ref.fan(mu, v, r.l_size, r.ell, name == "fan_sugeno_sharp")
            other = ref.fan(mu, v, r.l_size, r.ell, name != "fan_sugeno_sharp")
            expect = ref.fmt_interval(self.lab_l, want)
            if want[1] != other[1]:
                bad.append("sharp and plain upper ends differ")
            if want[1] != ref.sup_closed_form(mu, v, r.l_size, r.ell):
                bad.append("upper end differs from the closed form")
            if f.shape == "indicator" and want[1] != r.ell[mu(f.mask)]:
                bad.append("indicator does not give ell(mu(mask))")
        elif name == "fan_sugeno_dual":
            want = ref.fan_dual(mu, v, r.l_size, r.ell)
            inner = ref.fan(mu, v, r.l_size, r.ell)
            expect = ref.fmt_interval(self.lab_l, want)
            if not (inner[0] <= want[0] and inner[1] <= want[1]):
                bad.append("inner product above the dual")
        elif name in ("quantile_functional", "median"):
            expect = ref.fmt_interval(self.lab_l, ref.quantile_of(mu, v, r.l_size, r.m_size)[p])
        elif name == "sugeno_integral":
            want = ref.sugeno(mu, v, r.m_size)
            expect = self.lab_m(want)
            if want != ref.fan(mu, v, r.m_size, range(r.m_size))[1]:
                bad.append("Sugeno integral differs from the identity-comm upper end")
            if f.shape == "indicator" and want != mu(f.mask):
                bad.append("indicator does not give mu(mask)")
            if f.shape == "constant" and want != v[0]:
                bad.append("constant does not give itself")
        elif name == "symmetric":
            want = ref.symmetric(mu, v, r.half, r.ell_pos)
            expect = ref.fmt_signed(self.lab_h, want)
            if ref.symmetric(mu, tuple(-x for x in v), r.half, r.ell_pos) != ref.reflect(want):
                bad.append("symmetric aggregate is not odd")
        elif name == "asymmetric":
            want = ref.asymmetric(mu, v, r.half, r.ell_minus, r.ell_plus)
            expect = ref.fmt_signed(self.lab_h, want)
        elif name == "ordinal_distance":
            expect = self.lab_h(ref.distance(mu, r.ell_pos, v, g.values, r.half))
        else:
            want = ref.distance(mu, range(r.m_size), v, (0,) * r.n, r.half)
            expect = self.lab_h(want)
            if f.shape == "constant" and want != abs(v[0]):
                bad.append("norm of a constant is not its absolute value")
            if f.shape == "indicator" and want != mu(f.mask):
                bad.append("norm of an indicator is not mu(mask)")
        return expect, bad


def wide_chain(seed: int, src: str) -> ScoreWorkload:
    return ScoreWorkload(seed, src, n=8, m_size=1501, l_size=3001, half=1500,
                         labelled=False, identity=False)


def narrow_chain(seed: int, src: str) -> ScoreWorkload:
    return ScoreWorkload(seed, src, n=10, m_size=101, l_size=101, half=100,
                         labelled=True, identity=True)


class CliWorkload:
    """One `ordagg` process per query, one at a time, on a spec at the
    16-element limit.  In-process mode runs the same queries through
    `ordagg.cli.run`, for the traced run."""

    cycle = 10

    def __init__(self, seed: int, src: str, spec_path: str, **shape):
        self.src = src
        self.env = child_env(src)
        self.raw = gen.cli_inputs(seed, **shape)
        self.path = spec_path
        with open(spec_path, "w", encoding="utf-8") as fh:
            fh.write(self.raw.text)
        self.in_process = False
        self._expected: dict[tuple[str, ...], str] = {}

    def setup_once(self) -> float:
        """Wall time of a fresh interpreter importing ordagg.cli."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ordagg.cli"], env=self.env, check=True)
        return time.perf_counter() - t0

    def build(self) -> float:
        """Switch to running queries in-process, for the traced run."""
        t0 = time.perf_counter()
        import ordagg.cli  # noqa: F401

        self.in_process = True
        return time.perf_counter() - t0

    def draw(self, i: int) -> tuple[str, ...]:
        c, slot = divmod(i, self.cycle)
        k = c % len(self.raw.functions)
        f, s, spec = f"f{k}", f"s{k}", self.path
        return (
            ("check", spec),
            ("eval", spec, "--measure", "mu", "--function", f, "--comm", "id",
             "--variant", "sharp" if c % 2 == 0 else "plain"),
            ("eval-dual", spec, "--measure", "mu", "--function", f, "--comm", "id"),
            ("quantile", spec, "--measure", "mu", "--function", f,
             "--p", gen.decimal_labels(self.raw.size)[self.raw.points[k]]),
            ("eval-sym", spec, "--measure", "mu", "--function", s, "--comm", "idr"),
            ("eval", spec, "--measure", "part", "--extend", "inner", "--function", f,
             "--comm", "id"),
            ("check", spec, "--measure", "cl", "--property", "minitive"),
            ("chain-verify", spec, "--measure", "cl", "--kind", "lower"),
            ("norm", spec, "--measure", "mu", "--function", s, "--kind", "esssup"),
            ("distribution", spec, "--measure", "mu", "--function", f),
        )[slot]

    def run(self, argv) -> str:
        if self.in_process:
            import ordagg.cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ordagg.cli.run(list(argv))
            return f"exit={code}\n{buf.getvalue()}"
        done = subprocess.run([sys.executable, "-m", "ordagg.cli", *argv],
                              capture_output=True, text=True, env=self.env)
        return f"exit={done.returncode}\n{done.stdout}"

    def expect(self, argv) -> tuple[str, list[str]]:
        if argv not in self._expected:
            self._expected[argv] = "exit=0\n" + self.expected_stdout(argv)
        return self._expected[argv], []

    def expected_stdout(self, argv) -> str:
        r = self.raw
        lab = gen.decimal_labels(r.size).__getitem__
        opts = dict(zip(argv[2::2], argv[3::2]))
        cmd = argv[0]
        k = int(opts.get("--function", "f0")[1:])
        f, s = r.functions[k], r.signed[k]
        mu = r.mu.__getitem__
        ident = range(r.size)
        if cmd == "check":
            return "minitive=true\n" if "--property" in opts else "ok=true\n"
        if cmd == "eval":
            if opts["--measure"] == "part":
                mu = ref.inner_extension(r.part, r.n).__getitem__
            iv = ref.fan(mu, f, r.size, ident, opts.get("--variant", "sharp") == "sharp")
            return f"interval={ref.fmt_interval(lab, iv)} sup={lab(iv[1])}\n"
        if cmd == "eval-dual":
            return f"interval={ref.fmt_interval(lab, ref.fan_dual(mu, f, r.size, ident))}\n"
        if cmd == "quantile":
            p = r.points[k]
            iv = ref.quantile_of(mu, f, r.size, r.size)[p]
            return f"p={lab(p)} interval={ref.fmt_interval(lab, iv)}\n"
        if cmd == "eval-sym":
            iv = ref.symmetric(mu, s, r.half, ident)
            return f"interval={ref.fmt_signed(lab, iv)} sup={ref.signed_label(lab, iv[1])}\n"
        if cmd == "chain-verify":
            names = [f"e{i}" for i in range(r.n)]
            sets = ["{" + ",".join(names[i] for i in range(r.n) if m >> i & 1) + "}"
                    for m in r.chain_sets]
            return f"chain={'|'.join(sets)} verified=true\n"
        if cmd == "norm":
            top = r.size - 1
            collapsed = lambda mask: top if r.mu[mask] > 0 else 0  # noqa: E731
            return f"norm={lab(ref.distance(collapsed, ident, s, (0,) * r.n, r.half))}\n"
        g = ref.distribution(mu, f, r.size)
        return "".join(f"x={lab(x)} value={lab(v)}\n" for x, v in enumerate(g))
