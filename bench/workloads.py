"""Seeded inputs, requests and output checks of the benchmark's workloads.

Every input is a pure function of the workload seed and the request index, so
a request can be regenerated after the timed loop to check its output.  A
workload hands the program only argv and the files it wrote.

Workloads, and why each was chosen, are listed in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# What `estimate` prints when every weighted value is tied (the ROADMAP's
# tied-data defect): the bootstrap variance is 0 and the prior update rejects it.
TIED_DATA_ERROR = "sample variance must be finite and > 0, got 0.0"

# The analytic bootstrap drops CDF increments below this level (see
# tailquant.bootstrap); the reference applies the same rule.
_MASS_FLOOR = 1e-15


@dataclass(frozen=True)
class Request:
    argv: list[str]
    obs: int
    trials: int


@dataclass(frozen=True)
class EstimateInput:
    """The input of one `estimate` request."""

    k: int
    n: int
    p: float
    floor_count: int
    prior_mean: float
    prior_var: float
    values: np.ndarray

    def text(self) -> str:
        return "\n".join(map(repr, self.values.tolist())) + "\n"

    def argv(self, path: Path) -> list[str]:
        return [
            "estimate", str(path), "--p-value", repr(self.p),
            "--prior-mean", repr(self.prior_mean), "--prior-var", repr(self.prior_var),
            "--variance-mode", "bootstrap",
        ]


class EstimateFiles:
    """`tailquant estimate FILE` with a prior, one fresh file per request.

    Requests come in blocks of thirty: two rounds over fifteen equal strata
    of log n.  Each round offsets its strata by a golden-ratio step, and p
    alternates between strata and between rounds.  The cost of a request
    depends on (n, p) alone, so any whole number of blocks costs nearly the
    same on every seed.  With fifteen strata the median and the 90th
    percentile fall in the middle of a stratum, not on a boundary between
    two, so they barely move with the number of blocks.  The seed sets the
    order within a block, the values, the prior and which files are floored.
    No two requests of a run share n, because each `tailquant` process starts
    with an empty weight memo.  Three requests per block have a floored
    lower tail: a share of 6-10% of their values sits at one floor value,
    which puts every resampling weight above the mass floor on tied values.
    """

    block = 30
    strata = 15
    pace_mix = "interpreted"
    floored_per_block = 3
    n_range = (1_000, 100_000)
    p_values = (0.01, 0.001)
    floor_share = (0.06, 0.10)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = Path(workdir) / "data.txt"
        self._sizes: list[int] = []
        self._used: set[int] = set()

    def _plan(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([self.seed, 1, b])
        return rng.permutation(self.block), rng.choice(self.block, self.floored_per_block, replace=False)

    def _stratum(self, k: int) -> tuple[int, int, bool]:
        """(round, stratum, floored) of request k."""
        b, pos = divmod(k, self.block)
        order, floored = self._plan(b)
        slot = int(order[pos])
        rounds = self.block // self.strata
        return rounds * b + slot // self.strata, slot % self.strata, pos in floored

    def _size(self, k: int) -> int:
        lo, hi = self.n_range
        while len(self._sizes) <= k:
            rnd, j, _ = self._stratum(len(self._sizes))
            u = (j + (0.5 + rnd * _GOLDEN) % 1.0) / self.strata
            n = min(hi, max(lo, round(lo * (hi / lo) ** u)))
            step = 1
            while n in self._used or not lo <= n <= hi:
                n += step if step % 2 else -step
                step += 1
            self._used.add(n)
            self._sizes.append(n)
        return self._sizes[k]

    def input(self, k: int) -> EstimateInput:
        rnd, j, floored = self._stratum(k)
        n = self._size(k)
        p = self.p_values[(j + rnd) % 2]
        rng = np.random.default_rng([self.seed, 2, k])
        loc = rng.uniform(-1.0, 1.0)
        values = loc + np.log(rng.standard_exponential(n))
        floor_count = 0
        if floored:
            floor_count = math.ceil(rng.uniform(*self.floor_share) * n)
            values = np.maximum(values, np.partition(values, floor_count - 1)[floor_count - 1])
        true_quantile = loc + math.log(-math.log1p(-p))
        prior_mean = true_quantile + float(rng.standard_normal())
        prior_var = 10.0 ** rng.uniform(-2.0, 0.0)
        return EstimateInput(k, n, p, floor_count, prior_mean, prior_var, values)

    def prepare(self, k: int) -> Request:
        inp = self.input(k)
        self.path.write_text(inp.text(), encoding="utf-8")
        return Request(inp.argv(self.path), inp.n, 1)

    def collect(self, k: int, rc: int, stdout: str) -> str:
        return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()

    def failure_kind(self, k: int, stderr: str) -> str:
        if self.input(k).floor_count and TIED_DATA_ERROR in stderr:
            return "floor_mass_tied_variance"
        return "error"

    def check(self, records: list[dict]):
        """(k, problem) for each output check that fails."""
        for rec in records:
            if rec["rc"] == 0:
                for problem in check_estimate(self.input(rec["k"]), rec["stdout"]):
                    yield rec["k"], problem


def parse_key_values(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def reference_bootstrap_variance(sorted_values: np.ndarray, r: int) -> float:
    """Analytic bootstrap variance from scipy's incomplete beta."""
    from scipy.special import betainc

    n = sorted_values.size
    cdf = betainc(r, n - r + 1, np.arange(n + 1) / n)
    w = np.diff(cdf)
    w[w < _MASS_FLOOR] = 0.0
    dev = sorted_values - sorted_values[r - 1]
    return float(np.dot(dev * dev, w))


def check_estimate(inp: EstimateInput, stdout: str) -> list[str]:
    """Problems with the output of a successful `estimate` request."""
    out = parse_key_values(stdout)
    keys = ("n", "p", "rank", "quantile", "bootstrap_variance",
            "posterior_mean", "posterior_variance", "prior_weight")
    missing = [key for key in keys if key not in out]
    if missing:
        return [f"request {inp.k}: missing {missing}"]
    problems = []
    r = math.floor(inp.n * inp.p)
    if (int(out["n"]), int(out["rank"])) != (inp.n, r):
        problems.append(f"request {inp.k}: n, rank = {out['n']}, {out['rank']}; want {inp.n}, {r}")
        return problems
    quantile = float(out["quantile"])
    expected = float(np.partition(inp.values, r - 1)[r - 1])
    if quantile != expected:
        problems.append(f"request {inp.k}: quantile {quantile!r} != order statistic {expected!r}")

    sn2 = float(out["bootstrap_variance"])
    ordered = np.sort(inp.values)
    ref = reference_bootstrap_variance(ordered, r)
    spread = float(np.max(np.abs(ordered - ordered[r - 1])))
    if not (math.isclose(sn2, ref, rel_tol=1e-9) or (ref == 0.0 and abs(sn2) <= _MASS_FLOOR * spread**2)):
        problems.append(f"request {inp.k}: bootstrap_variance {sn2!r} != reference {ref!r}")

    # Conjugate update re-derived from the printed variance; the sn2 -> 0
    # limit (all weight on the sample quantile) is the same formula.
    s2, mu = inp.prior_var, inp.prior_mean
    weight = sn2 / (s2 + sn2)
    derived = {
        "prior_weight": weight,
        "posterior_mean": weight * mu + (1.0 - weight) * quantile,
        "posterior_variance": s2 * sn2 / (s2 + sn2),
    }
    scale = {"prior_weight": 1.0, "posterior_mean": abs(mu) + abs(quantile), "posterior_variance": s2}
    for key, want in derived.items():
        got = float(out[key])
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale[key]):
            problems.append(f"request {inp.k}: {key} {got!r} != re-derived {want!r}")
    return problems


class Simulate:
    """`tailquant simulate` on a fixed grid, the same seeded call repeated."""

    block = 1
    prior_variances = (1.0, 0.1, 0.01)

    def __init__(self, p_values, sizes, trials: int, seed: int, workdir: Path, pace_mix: str):
        self.pace_mix = pace_mix
        self.p_values = tuple(p_values)
        self.sizes = tuple(sizes)
        self.trials = trials
        self.seed = seed
        self.csv = Path(workdir) / "rmse.csv"
        self.first_csv: bytes | None = None
        cells = len(self.p_values) * len(self.sizes) * len(self.prior_variances)
        self._request = Request(
            [
                "simulate",
                "--p", ",".join(map(repr, self.p_values)),
                "--n", ",".join(map(str, self.sizes)),
                "--sigma2", ",".join(map(repr, self.prior_variances)),
                "--trials", str(trials), "--seed", str(seed), "--out", str(self.csv),
            ],
            obs=len(self.p_values) * len(self.prior_variances) * sum(self.sizes) * trials,
            trials=cells * trials,
        )

    def prepare(self, k: int) -> Request:
        return self._request

    def collect(self, k: int, rc: int, stdout: str) -> str:
        if rc != 0:
            return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()
        data = self.csv.read_bytes()
        if self.first_csv is None:
            self.first_csv = data
        return hashlib.sha256(data).hexdigest()

    def failure_kind(self, k: int, stderr: str) -> str:
        return "error"

    def check(self, records: list[dict]):
        """(k, problem) for each output check that fails."""
        ok = [rec for rec in records if rec["rc"] == 0]
        if not ok:
            return
        for rec in ok:
            if rec["digest"] != ok[0]["digest"]:
                yield rec["k"], f"CSV of call {rec['k']} differs from the first call's"
        for problem in self._check_csv():
            yield ok[0]["k"], problem

    def _check_csv(self) -> list[str]:
        """Problems with the first CSV written: shape, fields and RMSE values."""
        lines = self.first_csv.decode("utf-8").splitlines()
        if lines[0] != "p,n,sigma2,method,rmse,trials,seed":
            return [f"unexpected CSV header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        cells = {(float(p), int(n), float(s2)) for p, n, s2, *_ in rows}
        want = {(p, n, s2) for p in self.p_values for n in self.sizes for s2 in self.prior_variances}
        problems = []
        if cells != want or len(rows) != 3 * len(want):
            problems.append(f"CSV has {len(rows)} rows over cells {sorted(cells)}")
        for p, n, s2, method, rmse, trials, seed in rows:
            if not (math.isfinite(float(rmse)) and float(rmse) > 0.0):
                problems.append(f"rmse {rmse} at p={p} n={n} sigma2={s2} {method}")
            if (int(trials), int(seed)) != (self.trials, self.seed):
                problems.append(f"trials, seed = {trials}, {seed} at p={p} n={n} sigma2={s2}")
        return problems


def digest(items) -> str:
    """sha256 over a sequence of strings, one per line."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode() + b"\n")
    return h.hexdigest()


def make(name: str, seed: int, workdir: Path):
    if name == "estimate-files":
        return EstimateFiles(seed, workdir)
    if name == "sim-large-n":
        return Simulate((0.01, 0.001), (100_000,), 2, seed, workdir, "array")
    if name == "sim-small-n":
        return Simulate((0.01,), (100, 200, 500, 1000), 25, seed, workdir, "interpreted")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("estimate-files", "sim-large-n", "sim-small-n")
