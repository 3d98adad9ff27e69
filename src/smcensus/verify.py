"""The acceptance suite: every headline check as a machine-readable result.

A criterion is declared in one place: a function decorated with
`@criterion(id, name)` that returns (passed, details).  The decorator
lists it in CRITERIA, in id order, and a call to it returns the timed
`record.CheckResult` whose fields are the name and details;
run_verify_suite executes the listed ones against one RunConfig, and the
CLI writes each as one line.
The instance sweep (brute-force enumeration, rotation poset, bijection,
structure checks, grid embedding) is computed once and shared by the
criteria that consume it, optionally split across worker processes;
results never depend on the worker count.

Small instances repeat the same tangled grids: most have no rotation or
one, so 502 instances at n <= 7 give about 145 distinct grids (71 % are
repeats) and the default 202-instance plan 74 (63 %).  A run therefore
keeps one dict from `posets.grid_key` to the grid stage's results and
embeds, validates and counts each distinct grid once; a worker process
gives each of its jobs a dict of its own.  For the same reason c06
bounds each distinct family once and c09 checks each distinct grid once
(6-11 of c06's 20 grid families and 7-9 of c09's 21 grids are distinct),
while failures, margins and counts still run over every tag.  c06's
distinct families (54-63 of its 73 tags at seeds 1, 2, 5, 21, 42 and 77)
are grouped by arity, 2-6 and 8, and each arity's families are bounded under
all five modes by one `counting.reveal_bounds` call: one stacked
option-count table, one histogram request and one Monte Carlo draw per
arity, each family's results equal to bounding it alone.  c06, c12 and
c13 decide by `record.SE_RULE`, c13 through `record.law_fit`.
"""

from __future__ import annotations

import inspect
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, wraps
from math import comb

import numpy as np

from . import bounds, counting, distributions, matchings, posets, rotations
from .counting import BoundMode, BipartiteGraph, bound_holds, reveal_bound
from .distributions import EXTENDED, PLAIN
from .instances import PreferenceProfile, instance_I2, random_instance
from .record import CheckResult, law_fit
from .rng import Xoshiro256StarStar, bernoulli_threshold


SAMPLER_DRAWS = 10 ** 5  # c13's draws per sampler
SCAN_LIMIT = 10 ** 6     # c11 scans the finite reveal bound over 1..SCAN_LIMIT, then closes it


@dataclass
class RunConfig:
    seed: int = 42
    max_n: int = 7
    num_instances: int = 200
    mc_samples: int = 10 ** 6
    series_truncation: int = 10 ** 7
    inject_fault: bool = False
    threads: int = 1


def max_threads() -> int:
    """The largest worker count: a process pool forks all its workers at
    once, so more than the CPU count only costs processes."""
    return os.cpu_count() or 1


def instance_plan(config: RunConfig) -> list[tuple[int, int]]:
    """(n, seed) pairs: the n=1 profile, the two-matching fixture marker,
    then num_instances random instances cycling n over 2..max_n."""
    span = max(config.max_n - 1, 1)
    out = [(1, -1), (2, -2)]  # sentinels: n=1 unique profile, canonical fixture
    out += [(2 + i % span, config.seed * 1000 + i)
            for i in range(config.num_instances)]
    return out


def _profile_for(item: tuple[int, int]) -> PreferenceProfile:
    n, seed = item
    if seed == -1:
        return PreferenceProfile(1, ((0,),), ((0,),))
    if seed == -2:
        return instance_I2()
    return random_instance(n, seed)


def _sweep_one(args, grids: dict | None = None) -> dict:
    """One sweep row.  `grids` maps `posets.grid_key` to (grid_ok,
    grid_downsets), the grid stage's results, and is shared by the
    instances of one run; None gives this instance a dict of its own."""
    item, inject = args
    n, seed = item
    profile = _profile_for(item)
    t0 = time.perf_counter()
    brute = matchings.enumerate_stable_bruteforce(profile)
    rposet = rotations.build_rotation_poset(profile)
    downset_count = posets.count_downsets(rotations.to_finite_poset(rposet))
    via = rotations.enumerate_stable_via_rotations(profile, rposet)
    if inject and via:
        via = set(list(via)[1:])  # negative control: drop one matching
    bijection_elapsed = time.perf_counter() - t0

    report = rotations.check_structure(rposet)
    grids = {} if grids is None else grids
    key = posets.grid_key(rposet)
    if key not in grids:
        try:
            grid = posets.embed_in_tangled_grid(rposet)
            grids[key] = True, posets.count_downsets(grid.poset)
        except posets.PosetError:
            grids[key] = False, None
    grid_ok, grid_downsets = grids[key]
    return {
        "n": n,
        "seed": seed,
        "brute_count": len(brute),
        "via_count": len(via),
        "downset_count": downset_count,
        "sets_equal": brute == via,
        "structure_passed": report.passed,
        "grid_ok": grid_ok,
        "grid_downsets": grid_downsets,
        "poset_downsets": downset_count,
        "bijection_elapsed": bijection_elapsed,
    }


def run_sweep(config: RunConfig) -> list[dict]:
    """The rows of every instance of the plan; the grid-stage results are
    shared within one run (see the module docstring)."""
    plan = instance_plan(config)
    jobs = [(item, config.inject_fault and i == 2)
            for i, item in enumerate(plan)]
    if config.threads > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.threads) as pool:
                return list(pool.map(_sweep_one, jobs, chunksize=8))
        except OSError:
            pass  # sandboxed environments may forbid fork; fall back
    grids: dict = {}
    return [_sweep_one(job, grids) for job in jobs]


@dataclass(frozen=True)
class Criterion:
    id: str
    name: str
    reads_sweep: bool  # takes the instance sweep as its `sweep` argument
    function: str      # the module attribute run_verify_suite calls


CRITERIA: list[Criterion] = []  # in id order: the order of declaration


def criterion(check_id: str, name: str):
    """Declare a criterion: the decorated function takes the RunConfig (and
    the sweep rows, when it has a `sweep` parameter) and returns (passed,
    details).  A call returns the timed `CheckResult(check_id, passed,
    {"name": name, "details": details}, elapsed)`."""
    def declare(fn):
        reads_sweep = "sweep" in inspect.signature(fn).parameters
        CRITERIA.append(Criterion(check_id, name, reads_sweep, fn.__name__))

        @wraps(fn)
        def timed(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            passed, details = fn(*args, **kwargs)
            return CheckResult(check_id, passed, {"name": name, "details": details},
                               time.perf_counter() - t0)
        return timed
    return declare


@criterion("c01", "stable matchings equal rotation-poset downsets")
def criterion_bijection(config: RunConfig, sweep: list[dict]) -> tuple[bool, dict]:
    bad = [(r["n"], r["seed"]) for r in sweep
           if not (r["sets_equal"]
                   and r["brute_count"] == r["downset_count"] == r["via_count"])]
    elapsed = sum(r["bijection_elapsed"] for r in sweep)
    within_target = elapsed < 60.0
    return not bad and within_target, {"instances": len(sweep), "failures": bad[:10],
                                       "within_runtime_target": within_target}


@criterion("c02", "rotation poset structural claims")
def criterion_structure(config: RunConfig, sweep: list[dict]) -> tuple[bool, dict]:
    # `smcensus rotations --n N --seed S` names the failing claims
    bad = [(r["n"], r["seed"]) for r in sweep if not r["structure_passed"]]
    return not bad, {"failures": bad[:10]}


@criterion("c03", "tangled grid embedding invariants")
def criterion_embedding(config: RunConfig, sweep: list[dict]) -> tuple[bool, dict]:
    bad = [(r["n"], r["seed"]) for r in sweep
           if not r["grid_ok"] or r["grid_downsets"] < r["poset_downsets"]]
    return not bad, {"failures": bad[:10]}


@criterion("c04", "diamond grid downsets equal central binomials")
def criterion_diamond(config: RunConfig) -> tuple[bool, dict]:
    bad = []
    for n in range(1, 9):
        got = posets.count_downsets(posets.grid_diamond(n).poset)
        if got != comb(2 * n, n):
            bad.append((n, got, comb(2 * n, n)))
    return not bad, {"failures": bad}


_TABLE_ROWS = {
    "pair_then_zero": {(0, 1, 2): "N+1", (0, 2, 1): "N+1", (1, 0, 2): "2",
                       (1, 2, 0): "1", (2, 0, 1): "N", (2, 1, 0): "1"},
    "outer_pair": {(0, 1, 2): "N+1", (0, 2, 1): "N+1", (1, 0, 2): "N",
                   (1, 2, 0): "1", (2, 0, 1): "2", (2, 1, 0): "1"},
    "zero_then_pair": {(0, 1, 2): "N+1", (0, 2, 1): "N+1", (1, 0, 2): "2",
                       (1, 2, 0): "1", (2, 0, 1): "2", (2, 1, 0): "1"},
}


def _table_value(expr: str, n_max: int) -> int:
    return {"N+1": n_max + 1, "N": n_max, "2": 2, "1": 1}[expr]


@criterion("c05", "worked family option counts and bounds")
def criterion_table(config: RunConfig) -> tuple[bool, dict]:
    bad = []
    orders = list(_TABLE_ROWS["pair_then_zero"])
    revealed = [sum(1 << j for j in order[:order.index(0)]) for order in orders]
    for n_max in (2, 5, 10):
        fam = counting.diagonal_pair_family(n_max)
        column = {member: k for k, member in enumerate(fam.members)}
        # X_0 per order and member, from the table c06's bounds read
        table = counting.OptionCountTable((fam,))
        x0 = dict(zip(orders, table.counts([0] * len(orders), revealed).tolist()))
        for i in range(1, n_max + 1):
            shapes = {"pair_then_zero": (i, i, 0), "outer_pair": (i, 0, i),
                      "zero_then_pair": (0, i, i)}
            for row, member in shapes.items():
                for order, expr in _TABLE_ROWS[row].items():
                    got = x0[order][column[member]]
                    want = _table_value(expr, n_max)
                    if got != want:
                        bad.append((n_max, row, i, order, got, want))
        # log(2^(2/3) (N+1) N^(1/3)) as weights of logs, merged at N = 2
        closed = {1: 1, 2: Fraction(2, 3), n_max + 1: 1}
        closed[n_max] = closed.get(n_max, 0) + Fraction(1, 3)
        fixed = reveal_bound(fam, BoundMode("fixed_order", orders=(0, 1, 2)))
        if fixed.log_mix != closed or not bound_holds(fixed, fam):
            bad.append((n_max, "fixed_order", fixed.value, str(fixed.log_mix)))
        prod = reveal_bound(fam, BoundMode("mean_product"))
        if prod.product != Fraction(3 * n_max + 6, 6) ** 3 or prod.product < 3 * n_max:
            bad.append((n_max, "mean_product", str(prod.product)))
    return not bad, {"failures": bad[:10]}


def _random_graphs(config: RunConfig, count: int, max_side: int, stream: int, keep) -> list:
    """``count`` values keep(g) of random bipartite graphs g from one seeded
    stream, skipping the graphs where keep returns None; the side cycles
    over 2..max_side by how many were kept plus how many drawn."""
    rng = Xoshiro256StarStar(config.seed, stream=stream)
    half = bernoulli_threshold(Fraction(1, 2))
    out = []
    attempt = 0
    while len(out) < count:
        n = 2 + (len(out) + attempt) % (max_side - 1)
        g = counting.random_bipartite_graph(n, n, half, rng)
        attempt += 1
        kept = keep(g)
        if kept is not None:
            out.append(kept)
    return out


def _matching_family(graph: BipartiteGraph) -> counting.TupleFamily | None:
    """The graph's perfect-matching family, None when it has no perfect
    matching; the matchings are enumerated once."""
    try:
        return counting.perfect_matching_family(graph)
    except counting.FamilyError:
        return None


def family_bound_families(config: RunConfig):
    """c06's (tag, family) pairs: the worked family, perfect matchings of
    random graphs, and downsets of random tangled grids."""
    for n_max in (2, 5, 10):
        yield f"diag{n_max}", counting.diagonal_pair_family(n_max)
    for gi, fam in enumerate(_random_graphs(config, 50, 6, 7, _matching_family)):
        yield f"pm{gi}", fam
    for si in range(20):
        grid = posets.random_tangled_grid(2 + si % 3, config.seed * 77 + si)
        yield f"grid{si}", counting.downset_top_family(grid)


FAMILY_BOUNDS = ("averaged", "worst_member", "mean_product", "fixed_order", "averaged_mc")


def _family_bound_modes(n: int, mc_samples: int) -> tuple[BoundMode, ...]:
    """c06's five modes for families of n components, in FAMILY_BOUNDS order."""
    return (BoundMode("averaged"), BoundMode("worst_member"), BoundMode("mean_product"),
            BoundMode("fixed_order", orders=tuple(range(n))),
            BoundMode("averaged", samples=mc_samples))


@criterion("c06", "family-size bound holds for every variant")
def criterion_family_bounds(config: RunConfig) -> tuple[bool, dict]:
    bad = []
    mc_samples = max(200, config.mc_samples // 500)
    margins: dict[str, list[float]] = {}  # variant -> value - log |S| per family
    mc_se = None  # smallest Monte Carlo margin in standard errors
    tagged = list(family_bound_families(config))
    by_arity: dict[int, dict[counting.TupleFamily, None]] = {}  # distinct families, first seen
    for _, fam in tagged:
        by_arity.setdefault(fam.n, {})[fam] = None
    bounds_of: dict[counting.TupleFamily, dict] = {}  # equal families, equal bounds
    for n, fams in by_arity.items():
        stacked = counting.reveal_bounds(fams, _family_bound_modes(n, mc_samples), config.seed)
        for fam, results in zip(fams, stacked):
            bounds_of[fam] = dict(zip(FAMILY_BOUNDS, results))
    for tag, fam in tagged:
        results = bounds_of[fam]
        target = math.log(len(fam.members))
        for variant, res in results.items():
            if not bound_holds(res, fam):
                bad.append((tag, variant, res.value, target))
            margins.setdefault(variant, []).append(res.value - target)
        mc = results["averaged_mc"]
        if mc.stderr > 0:  # a zero standard error leaves the margin exact, and above
            se = (mc.value - target) / mc.stderr
            mc_se = se if mc_se is None else min(mc_se, se)
    # families of one or two members are tight, so the smallest margins are
    # often 0; the mean margins move with every bound
    return not bad, {"failures": bad[:10],
                     "min_margin": {**{v: min(ms) for v, ms in margins.items()},
                                    "averaged_mc_se": mc_se},
                     "mean_margin": {v: math.fsum(ms) / len(ms) for v, ms in margins.items()}}


@criterion("c07", "perfect matchings below degree-factorial bound")
def criterion_bregman(config: RunConfig) -> tuple[bool, dict]:
    bad = []
    for gi, g in enumerate(_random_graphs(config, 200, 7, 8, lambda g: g)):
        pm = counting.count_perfect_matchings(g)
        L, P = counting.bregman_bound(g)
        if pm ** L > P:
            bad.append(("random", gi, pm, math.log(P) / L))
    for n in range(1, 5):
        g = BipartiteGraph(n, n, frozenset(
            (u, v) for u in range(n) for v in range(n)))
        pm = counting.count_perfect_matchings(g)
        L, P = counting.bregman_bound(g)
        if pm ** L != P:
            bad.append(("complete", n, pm, math.log(P) / L))
    return not bad, {"failures": bad[:10]}


@criterion("c08", "cyclic gap law exact against enumeration")
def criterion_distributions(config: RunConfig) -> tuple[bool, dict]:
    bad = []
    for n in range(2, 13):
        for l in range(2, n + 1):
            closed = dict(distributions.cyclic_gap_pmf(n, l))
            brute = dict(distributions.cyclic_gap_pmf_bruteforce(n, l))
            if closed != brute:
                bad.append(("pmf", n, l))
    for n in range(2, 21):
        for l in range(2, n + 1):
            m = distributions.cyclic_gap_expectation(n, l)
            if m.given_marked_unchosen != Fraction(2 * (n + 1), l + 1) \
                    or m.given_marked_chosen != Fraction(n + 1, l) \
                    or m.expectation > Fraction(2 * (n + 1), l + 1):
                bad.append(("expectation", n, l))
    return not bad, {"failures": bad[:10]}


def dominance_grids(config: RunConfig) -> list[tuple[str, posets.TangledGrid]]:
    """c09's (tag, grid) pairs: the diamond of side 3 and random tangled grids."""
    return [("diamond3", posets.grid_diamond(3))] + [
        (f"grid{si}", posets.random_tangled_grid(2 + si % 3, config.seed * 99 + si))
        for si in range(20)]


@criterion("c09", "option counts dominated by cyclic gap law")
def criterion_dominance(config: RunConfig) -> tuple[bool, dict]:
    bad = []
    reports = 0  # (grid, chain, l) comparisons checked
    grids = dominance_grids(config)
    reports_of: dict[posets.TangledGrid, list[CheckResult]] = {}  # equal grids, equal reports
    for tag, grid in grids:
        if grid not in reports_of:
            reports_of[grid] = distributions.dominance_check_grid(grid)
        for rep in reports_of[grid]:
            reports += 1
            if not rep.passed:
                f = rep.fields
                bad.append((tag, f["chain"], f["l"], f["witnesses"][:2]))
    return not bad, {"grids": len(grids), "reports": reports, "failures": bad[:10]}


@criterion("c10", "summation identity, pmf integrals, normalization")
def criterion_identities(config: RunConfig) -> tuple[bool, dict]:
    bad = []
    try:
        checked = bounds.whitworth_sweep(40)
    except bounds.IdentityError as exc:
        checked = None  # the sweep stopped at its first failing triple
        bad.append(("whitworth", *exc.triple))
    for k in range(1, 201):
        if not bounds.integral_check(k, PLAIN)[2]:
            bad.append(("plain_integral", k))
    for k in range(2, 201):
        if not bounds.integral_check(k, EXTENDED)[2]:
            bad.append(("extended_integral", k))
    for i in range(1, 21):
        x = Fraction(i, 21)
        if distributions.line_gap_total(x, 40, PLAIN) != 1:
            bad.append(("plain_norm", i))
        if distributions.line_gap_total(x, 40, EXTENDED) != 1:
            bad.append(("extended_norm", i))
    return not bad, {"whitworth_triples": checked, "failures": bad[:10]}


@criterion("c11", "series constants and exponential bases")
def criterion_constants(config: RunConfig) -> tuple[bool, dict]:
    details: dict = {}
    ok = True
    t0 = time.perf_counter()

    scan = bounds.finite_reveal_log_bound_scan(SCAN_LIMIT)
    plain = bounds.gap_log_series(config.series_truncation, PLAIN)
    past_hi = bounds.finite_reveal_log_ceiling(SCAN_LIMIT, plain.hi)
    details["finite_scan"] = {"max": scan.max_value, "argmax": scan.argmax,
                              "certified_hi": scan.certified_hi, "past_limit_hi": past_hi}
    ok &= max(scan.certified_hi, past_hi) <= bounds.PLAIN_LOG_LIMIT

    details["plain_series"] = {"lo": plain.lo, "hi": plain.hi,
                               "certified_base": plain.certified_base,
                               "limit": bounds.PLAIN_LOG_LIMIT,
                               "within": plain.hi <= bounds.PLAIN_LOG_LIMIT}
    ok &= plain.hi <= bounds.PLAIN_LOG_LIMIT

    ext = bounds.gap_log_series(config.series_truncation, EXTENDED)
    details["extended_series"] = {"lo": ext.lo, "hi": ext.hi,
                                  "certified_base": ext.certified_base,
                                  "limit": bounds.EXTENDED_LOG_LIMIT,
                                  "within": ext.hi <= bounds.EXTENDED_LOG_LIMIT}
    ok &= ext.hi <= bounds.EXTENDED_LOG_LIMIT

    details["majorants"] = {
        "plain": bounds.verify_term_majorants(PLAIN),
        "extended": bounds.verify_term_majorants(EXTENDED),
    }
    ok &= all(details["majorants"].values())

    rep = bounds.bound_report(1)
    details["base_checks"] = rep["checks"]
    ok &= all(rep["checks"].values())

    within_target = time.perf_counter() - t0 < 120.0
    details["within_runtime_target"] = within_target
    ok &= within_target
    return bool(ok), details


@criterion("c12", "Jensen grid and correlated-slot comparison")
def criterion_jensen_and_dependence(config: RunConfig) -> tuple[bool, dict]:
    points, margins = distributions.jensen_margins(10, 10)
    bad = [("jensen", *point) for point in points[margins < 0].tolist()]
    patterns = distributions.legal_identification_patterns()
    # one draw per x serves every pattern: by_x[xi][pi] is one cell
    by_x = [distributions.gap_dependence_cells(x, patterns, seed=config.seed * 100 + xi,
                                               samples=config.mc_samples)
            for xi, x in enumerate((0.1, 0.3, 0.5, 0.7, 0.9))]
    cells = [row[pi] for pi in range(len(patterns)) for row in by_x]  # pattern-major
    bad += [("dependence", res.pattern, res.x, res.diff_mean, res.diff_stderr)
            for res in cells if not res.passed]
    return not bad, {"dependence_cells": len(cells), "failures": bad[:10]}


@criterion("c13", "sampler goodness of fit and determinism")
def criterion_samplers(config: RunConfig) -> tuple[bool, dict]:
    bad = []
    n, l = 3, 2
    fits = [("cyclic", f"cyclic({n},{l})", partial(distributions.sample_cyclic_gap, n, l),
             ([p for _, p in distributions.cyclic_gap_pmf(n, l)],))]
    fits += [(variant, f"line_{variant}", partial(distributions.sample_line_gap, 0.5, variant),
              distributions.line_gap_cells(0.5, variant)) for variant in (PLAIN, EXTENDED)]
    for name, tag, sample, cells in fits:
        a = sample(config.seed, SAMPLER_DRAWS)
        if not np.array_equal(a, sample(config.seed, SAMPLER_DRAWS)):
            bad.append((f"{name}_determinism",))
        bad += [(tag, *cell) for cell in law_fit(a, *cells)]
    return not bad, {"draws": SAMPLER_DRAWS, "failures": bad[:10]}


@criterion("c14", "counts below the exponential ceilings")
def criterion_global_sanity(config: RunConfig, sweep: list[dict]) -> tuple[bool, dict]:
    # count > 3.55^n is 100^n count > 355^n, and likewise 11.11^n, in integers
    bad = []
    for r in sweep:
        n = r["n"]
        if 100 ** n * r["brute_count"] > 355 ** n:
            bad.append(("matchings", n, r["seed"], r["brute_count"]))
        if n <= 6 and r["grid_downsets"] is not None \
                and 100 ** n * r["grid_downsets"] > 1111 ** n:
            bad.append(("grid", n, r["seed"], r["grid_downsets"]))
    for n in range(1, 7):
        if 100 ** n * comb(2 * n, n) > 1111 ** n:
            bad.append(("diamond", n))
    return not bad, {"failures": bad[:10]}


CHECK_IDS = tuple(c.id for c in CRITERIA)


def run_verify_suite(config: RunConfig, only=None) -> list[CheckResult]:
    """Run every criterion, or only those whose ids (from CHECK_IDS) are in
    ``only``, in id order.  The instance sweep runs only when a selected
    criterion reads it; no criterion's result depends on which others run."""
    selected = [c for c in CRITERIA if only is None or c.id in only]
    sweep = run_sweep(config) if any(c.reads_sweep for c in selected) else None
    # each criterion is looked up by name when it runs, so a wrapped one is seen
    return [globals()[c.function](config, *([sweep] if c.reads_sweep else []))
            for c in selected]
