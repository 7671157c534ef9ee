"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Every tolerance is fixed here; nothing is calibrated at
runtime. Criteria marked by shared fixtures reuse the same trial batches.
"""

import math
import os
import zlib
from fractions import Fraction

import numpy as np
import pytest

from modestop.blockchain import sweep_f
from modestop.elections import load_election_csv, run_election, synthetic_election
from modestop.harness import TABLE1_INSTANCES, ExperimentSpec, run_experiment
from modestop.instances import DiscreteInstance, SamplePath, TallyState, derive_stream
from modestop.stopping import declaration_time, run_mode_estimation
from modestop.theory import (
    lower_bound,
    ppr_1v1_upper,
    ppr_bernoulli_upper,
    verify_1v1_1vr_conjecture,
    verify_beta_monotonicity,
    verify_thm3_margin,
)

MASTER_SEED = 20240811

P1 = DiscreteInstance(TABLE1_INSTANCES["P1"])
P3 = DiscreteInstance(TABLE1_INSTANCES["P3"])


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def _mean(xs):
    return sum(xs) / len(xs)


def _cell(instance_name: str, rule: str, reps: int = 100, delta: float = 0.01):
    spec = ExperimentSpec(
        probs=TABLE1_INSTANCES[instance_name],
        rule=rule,
        delta=delta,
        replications=reps,
        master_seed=MASTER_SEED + zlib.crc32(f"{instance_name}/{rule}".encode()) % 1_000_000,
        suite="acceptance",
        instance_label=instance_name,
    )
    return run_experiment(spec)


@pytest.fixture(scope="module")
def p1_ppr_1v1_records():
    return _cell("P1", "ppr-1v1")


class TestCriterion1:
    def test_table1_p1_cells(self, p1_ppr_1v1_records):
        gates = {
            "ppr-1v1": (185.0, 251.0),
            "ppr-1vr": (226.0, 298.0),
            "kl-sn-1v1": (307.0, 385.0),
            "a1-1v1": (1100.0, 1214.0),
        }
        means = {"ppr-1v1": p1_ppr_1v1_records[0].mean_samples}
        for rule in ("ppr-1vr", "kl-sn-1v1", "a1-1v1"):
            means[rule] = _cell("P1", rule)[0].mean_samples
        ok = all(lo <= means[rule] <= hi for rule, (lo, hi) in gates.items())
        detail = ", ".join(
            f"{rule} {means[rule]:.1f} in [{lo:.0f}, {hi:.0f}]" for rule, (lo, hi) in gates.items()
        )
        _report("1 (Table 1, P1)", ok, detail)
        for rule, (lo, hi) in gates.items():
            assert lo <= means[rule] <= hi, f"{rule} mean {means[rule]:.1f} outside [{lo}, {hi}]"


class TestCriterion2:
    def test_table1_p3_cells(self):
        means = {
            rule: _cell("P3", rule)[0].mean_samples
            for rule in ("ppr-1v1", "ppr-1vr", "kl-sn-1v1", "kl-sn-1vr", "a1-1v1", "a1-1vr")
        }
        in_gate = 705.0 <= means["ppr-1v1"] <= 873.0
        orderings = [
            means["ppr-1v1"] < means["ppr-1vr"],
            means["kl-sn-1v1"] < means["kl-sn-1vr"],
            means["a1-1v1"] < means["a1-1vr"],
        ]
        ok = in_gate and all(orderings)
        _report(
            "2 (Table 1, P3)",
            ok,
            f"ppr-1v1 {means['ppr-1v1']:.1f} in [705, 873]; "
            f"1v1<1vr: ppr {orderings[0]}, kl-sn {orderings[1]}, a1 {orderings[2]}",
        )
        assert in_gate, f"ppr-1v1 mean {means['ppr-1v1']:.1f} outside [705, 873]"
        assert all(orderings), f"1v1 < 1vr ordering violated: {means}"


class TestCriterion3:
    def test_per_run_1v1_before_1vr(self):
        violations = []
        for name, inst in (("P1", P1), ("P3", P3)):
            for engine in ("ppr", "a1", "lucb"):
                for i in range(100):
                    path = SamplePath(inst, derive_stream(MASTER_SEED + 31, i))
                    t_1v1, _ = declaration_time(inst, f"{engine}-1v1", 0.01, path)
                    t_1vr, _ = declaration_time(inst, f"{engine}-1vr", 0.01, path)
                    if t_1v1 > t_1vr:
                        violations.append((name, engine, i, t_1v1, t_1vr))
        ok = not violations
        _report(
            "3 (per-run 1v1 <= 1vr)",
            ok,
            f"600 shared-stream comparisons, {len(violations)} violations"
            + (f"; first: {violations[0]}" if violations else ""),
        )
        assert ok, f"1v1 declared after 1vr on: {violations[:5]}"


class TestCriterion4:
    def test_per_run_md_after_1v1(self):
        violations = []
        for i in range(100):
            path = SamplePath(P1, derive_stream(MASTER_SEED + 41, i))
            t_1v1, _ = declaration_time(P1, "ppr-1v1", 0.01, path)
            t_md, _ = declaration_time(P1, "ppr-md", 0.01, path)
            if t_md < t_1v1:
                violations.append((i, t_md, t_1v1))
        ok = not violations
        _report(
            "4 (per-run MD >= 1v1)",
            ok,
            f"100 shared P1 streams, {len(violations)} violations",
        )
        assert ok, f"MD declared before 1v1 on: {violations[:5]}"


class TestCriterion5:
    def test_delta_correctness_all_rules(self):
        instance = DiscreteInstance((0.6, 0.4))
        gate = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / 2000.0)
        rules = (
            "ppr-1v1",
            "ppr-1vr",
            "ppr-md",
            "ppr-adaptive",
            "lucb-1v1",
            "lucb-1vr",
            "kl-lucb-1v1",
            "kl-lucb-1vr",
            "kl-sn-1v1",
            "kl-sn-1vr",
            "a1-1v1",
            "a1-1vr",
        )
        rates = {}
        for ri, rule in enumerate(rules):
            mistakes = sum(
                not run_mode_estimation(
                    instance, rule, 0.1, derive_stream(MASTER_SEED + 51, ri, i)
                ).correct
                for i in range(2000)
            )
            rates[rule] = mistakes / 2000.0
        worst = max(rates, key=rates.get)
        ok = all(rate <= gate for rate in rates.values())
        _report(
            "5 (delta-correctness)",
            ok,
            f"12 rules x 2000 runs at delta=0.1; worst {worst} rate {rates[worst]:.4f} "
            f"<= gate {gate:.4f}",
        )
        assert ok, f"mistake rates above {gate:.4f}: " + str(
            {r: v for r, v in rates.items() if v > gate}
        )


class TestCriterion6:
    def test_bernoulli_engine_ordering(self):
        instance = DiscreteInstance((0.65, 0.35))
        order = ("ppr-1v1", "kl-sn-1v1", "kl-lucb-1v1", "lucb-1v1", "a1-1v1")
        # shared streams across engines: the KL-LUCB vs LUCB gap is within one
        # standard error at independent seeds, but KL-LUCB stops no later on
        # every single stream, so common random numbers pin the ordering
        means = {rule: 0.0 for rule in order}
        for i in range(100):
            path = SamplePath(instance, derive_stream(MASTER_SEED + 61, i))
            for rule in order:
                means[rule] += declaration_time(instance, rule, 0.01, path)[0] / 100.0
        chain = all(means[a] < means[b] for a, b in zip(order, order[1:]))
        _report(
            "6 (Bernoulli engine ordering)",
            chain,
            " < ".join(f"{rule}={means[rule]:.0f}" for rule in order),
        )
        assert chain, f"ordering violated: {means}"


class TestCriterion7:
    def test_upper_bounds_cover_empirical(self, p1_ppr_1v1_records):
        _, p1_records = p1_ppr_1v1_records
        bound_p1 = ppr_1v1_upper(0.5, 0.25, 3, 0.01)
        within_p1 = sum(r.samples <= bound_p1 for r in p1_records)

        bernoulli = DiscreteInstance((0.65, 0.35))
        runs = [
            run_mode_estimation(bernoulli, "ppr-1v1", 0.01, derive_stream(MASTER_SEED + 71, i))
            for i in range(100)
        ]
        bound_b = ppr_bernoulli_upper(0.65, 0.01)
        within_b = sum(r.samples <= bound_b for r in runs)

        low_p1 = lower_bound(0.5, 0.25, 0.01)
        low_b = lower_bound(0.65, 0.35, 0.01)
        mean_p1 = _mean([r.samples for r in p1_records])
        mean_b = _mean([r.samples for r in runs])
        ok = (
            within_p1 >= 99
            and within_b >= 99
            and low_p1 <= mean_p1
            and low_b <= mean_b
        )
        _report(
            "7 (theory bounds)",
            ok,
            f"P1 within upper {within_p1}/100 (bound {bound_p1:.0f}), "
            f"Bernoulli within upper {within_b}/100 (bound {bound_b:.0f}); "
            f"lower bounds {low_p1:.1f}<= {mean_p1:.1f} and {low_b:.1f}<= {mean_b:.1f}",
        )
        assert within_p1 >= 99 and within_b >= 99
        assert low_p1 <= mean_p1 and low_b <= mean_b


class TestCriterion8:
    def test_inequality_sweeps(self):
        failures = verify_1v1_1vr_conjecture(30, 30, 30)
        monotone = verify_beta_monotonicity(64, 64)
        margin_points = [
            (0.5, 0.25, 0.25, 3, 0.01),
            (0.4, 0.2, 0.2, 4, 0.01),
            (0.2, 0.1, 0.1, 9, 0.01),
            (0.1, 0.05, 0.05, 19, 0.01),
            (0.35, 0.33, 0.1, 5, 0.01),
            (0.35, 0.33, 0.04, 10, 0.01),
        ]
        margin_ok = all(verify_thm3_margin(*pt) for pt in margin_points)
        ok = not failures and monotone and margin_ok
        _report(
            "8 (numeric verifiers)",
            ok,
            f"conjecture failures {len(failures)}, monotonicity {monotone}, "
            f"margin grid {margin_ok}",
        )
        assert failures == []
        assert monotone
        assert margin_ok


class TestCriterion9:
    def test_fig3a_error_rates(self):
        fs = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
        runs = 5000
        cells = sweep_f(1600, 20, 2, 0.005, 0.1, fs, ["sprt", "ppr-1v1"], runs, MASTER_SEED + 91)
        gate = 0.005 + 3.0 * math.sqrt(0.005 * 0.995 / runs)
        sprt = {c.f: c.error_rate for c in cells if c.policy == "sprt"}
        ppr = {c.f: c.error_rate for c in cells if c.policy == "ppr-1v1"}
        sprt_low_ok = all(sprt[f] <= gate for f in fs if f <= 0.1)
        sprt_high_ok = sprt[0.3] > 0.005
        ppr_ok = all(ppr[f] <= gate for f in fs)
        ok = sprt_low_ok and sprt_high_ok and ppr_ok
        _report(
            "9 (Fig 3a error rates)",
            ok,
            f"SPRT err at f<=0.1 max {max(sprt[f] for f in fs if f <= 0.1):.4f} <= {gate:.4f}, "
            f"at f=0.3 {sprt[0.3]:.4f} > 0.005; PPR max {max(ppr.values()):.4f} <= {gate:.4f}",
        )
        assert sprt_low_ok and sprt_high_ok and ppr_ok


class TestCriterion10:
    def test_fig3b_sample_complexity(self):
        fs = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
        cells = sweep_f(
            1600, 20, 10, 0.005, 0.1, fs,
            ["sprt", "ppr-1v1", "ppr-adaptive"], 2000, MASTER_SEED + 101,
        )
        mean = {(c.f, c.policy): c.mean_samples for c in cells}
        sprt_ok = all(mean[(f, "sprt")] <= mean[(f, "ppr-1v1")] for f in fs)
        adaptive_ok = all(mean[(f, "ppr-1v1")] <= mean[(f, "ppr-adaptive")] for f in fs)
        ratio_ok = all(
            mean[(f, "ppr-adaptive")] <= 1.25 * mean[(f, "ppr-1v1")] for f in fs
        )
        ok = sprt_ok and adaptive_ok and ratio_ok
        detail = "; ".join(
            f"f={f:g}: sprt {mean[(f, 'sprt')]:.1f}, 1v1 {mean[(f, 'ppr-1v1')]:.1f}, "
            f"adaptive {mean[(f, 'ppr-adaptive')]:.1f}"
            for f in fs
        )
        _report("10 (Fig 3b ordering)", ok, detail)
        assert sprt_ok, "SPRT mean exceeded PPR-1v1 somewhere"
        assert adaptive_ok, (
            "PPR-Adaptive mean below PPR-1v1 at some f: "
            + str({f: (mean[(f, 'ppr-1v1')], mean[(f, 'ppr-adaptive')]) for f in fs})
        )
        assert ratio_ok, (
            "PPR-Adaptive more than 25% above PPR-1v1 at some f: "
            + str({f: mean[(f, 'ppr-adaptive')] / mean[(f, 'ppr-1v1')] for f in fs})
        )


INDIA_DATA_PATHS = (
    os.environ.get("MODESTOP_INDIA2014", ""),
    os.path.join(os.path.dirname(__file__), "..", "data", "india2014.csv"),
)


def _india_instance():
    for path in INDIA_DATA_PATHS:
        if path and os.path.exists(path):
            return load_election_csv(path)
    return None


class TestCriterion11:
    def test_elections(self):
        india = _india_instance()
        if india is not None:
            means = {}
            for policy in ("dcb", "rr"):
                recs = [
                    run_election(
                        india, policy, "ppr-1v1", 0.01, 200, derive_stream(MASTER_SEED + 111, s)
                    )
                    for s in range(10)
                ]
                means[policy] = _mean([r.samples for r in recs])
            dcb_ok = abs(means["dcb"] - 256911) <= 0.10 * 256911 + 3 * 2096
            rr_ok = abs(means["rr"] - 471661) <= 0.10 * 471661
            ok = dcb_ok and rr_ok and means["dcb"] < means["rr"]
            _report(
                "11 (elections, India-2014)",
                ok,
                f"dcb {means['dcb']:.0f} vs 256911, rr {means['rr']:.0f} vs 471661",
            )
            assert ok
            return

        instance = synthetic_election()
        rules = ("ppr-1v1", "ppr-1vr", "kl-sn-1v1", "kl-sn-1vr", "a1-1v1", "a1-1vr")
        all_ok, details = True, []
        for rule in rules:
            means = {}
            for policy in ("rr", "dcb"):
                recs = [
                    run_election(
                        instance, policy, rule, 0.01, 200, derive_stream(MASTER_SEED + 112, s)
                    )
                    for s in range(10)
                ]
                if not all(r.correct for r in recs):
                    all_ok = False
                    details.append(f"{policy}-{rule} wrong winner")
                means[policy] = _mean([r.samples for r in recs])
            if not means["dcb"] < means["rr"]:
                all_ok = False
            details.append(f"{rule} dcb/rr {means['dcb'] / means['rr']:.2f}")
        _report(
            "11 (elections, synthetic-50; India-2014 CSV not present)",
            all_ok,
            ", ".join(details),
        )
        assert all_ok, details


def _oracle_scan_min_q(p_hat: float, t: int, beta: float) -> float:
    """1e-7-resolution grid oracle for the KL lower inversion, written against
    an independent numpy divergence."""

    def kl_vec(qs):
        qs = np.clip(qs, 1e-300, 1.0 - 1e-16)
        acc = np.zeros_like(qs)
        if p_hat > 0.0:
            acc += p_hat * (math.log(p_hat) - np.log(qs))
        if p_hat < 1.0:
            acc += (1.0 - p_hat) * (math.log(1.0 - p_hat) - np.log1p(-qs))
        return acc

    lo, hi = 0.0, p_hat
    for step in (1e-3, 1e-5, 1e-7):
        qs = np.arange(lo, hi + step, step)
        qs = qs[qs <= p_hat]
        ok = t * kl_vec(qs) <= beta
        hits = np.nonzero(ok)[0]
        if hits.size == 0:
            return p_hat
        first = hits[0]
        lo = max(0.0, qs[first] - step)
        hi = qs[first]
    return float(hi)


def _oracle_scan_crossings(a: int, b: int, level: float) -> tuple[float, float]:
    """1e-7-resolution grid oracle for the Beta level set, written against
    math.lgamma instead of the shared table."""
    log_level = math.log(level)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def above(xs):
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.full_like(xs, log_norm)
            if a > 1:
                vals = vals + (a - 1) * np.log(xs)
            if b > 1:
                vals = vals + (b - 1) * np.log1p(-xs)
        return vals >= log_level

    lo_bracket, hi_bracket = (0.0, 1.0), (0.0, 1.0)
    step = 1e-3
    xs = np.arange(0.0, 1.0 + step, step)
    hits = np.nonzero(above(xs))[0]
    left = (max(0.0, xs[hits[0]] - step), xs[hits[0]])
    right = (xs[hits[-1]], min(1.0, xs[hits[-1]] + step))
    for step in (1e-5, 1e-7):
        xs = np.arange(left[0], left[1] + step, step)
        hits = np.nonzero(above(xs))[0]
        left = (max(0.0, xs[hits[0]] - step), xs[hits[0]])
        xs = np.arange(right[0], right[1] + step, step)
        hits = np.nonzero(above(xs))[0]
        right = (xs[hits[-1]], min(1.0, xs[hits[-1]] + step))
    return left[1], right[0]


class TestCriterion12:
    def test_kl_inversion_grid(self):
        from modestop.numerics import invert_kl_lower

        rng = np.random.default_rng(MASTER_SEED + 121)
        worst = 0.0
        for _ in range(100):
            t = int(rng.integers(1, 3000))
            s = int(rng.integers(0, t + 1))
            beta = float(rng.uniform(0.1, 25.0))
            p_hat = s / t
            got = invert_kl_lower(p_hat, t, beta)
            oracle = _oracle_scan_min_q(p_hat, t, beta)
            worst = max(worst, abs(got - oracle))
        _report("12a (KL inversion oracle)", worst <= 1e-6, f"worst deviation {worst:.2e}")
        assert worst <= 1e-6

    def test_level_crossing_grid(self):
        from modestop.numerics import beta_pdf, posterior_level_crossings

        rng = np.random.default_rng(MASTER_SEED + 122)
        worst = 0.0
        checked = 0
        while checked < 100:
            a = int(rng.integers(1, 200))
            b = int(rng.integers(1, 200))
            if a == 1 and b == 1:
                continue
            mode = 0.0 if a == 1 else 1.0 if b == 1 else (a - 1) / (a + b - 2)
            peak = beta_pdf(mode, a, b)
            level = float(rng.uniform(0.01, 0.95)) * peak
            iv = posterior_level_crossings(a, b, level)
            lo, hi = _oracle_scan_crossings(a, b, level)
            worst = max(worst, abs(iv.lo - lo), abs(iv.hi - hi))
            checked += 1
        _report("12b (level-crossing oracle)", worst <= 1e-6, f"worst deviation {worst:.2e}")
        assert worst <= 1e-6

    def test_dirichlet_slice_maximizer_grid(self):
        from modestop.stopping import PprMdRule

        rng = np.random.default_rng(MASTER_SEED + 123)
        rule = PprMdRule(3, 0.01)
        worst = 0.0
        for _ in range(20):
            counts = [int(rng.integers(1, 12)) for _ in range(3)]
            counts.sort(reverse=True)
            t = sum(counts)
            tally = TallyState(3)
            tally.add_counts(counts)
            got = rule.slice_log_quantity(tally, 1)
            best = -math.inf
            coeff = math.lgamma(t + 3) - sum(math.lgamma(c + 1) for c in counts)
            for z in np.arange(5e-4, 0.5, 1e-3):
                log_q = (
                    (counts[0] + counts[1]) * math.log(z)
                    + counts[2] * math.log(1.0 - 2.0 * z)
                    + coeff
                )
                best = max(best, log_q)
            # densities span many orders of magnitude; 1e-4 agreement is
            # asserted on the log densities
            assert got >= best - 1e-12
            worst = max(worst, abs(got - best))
        _report("12c (Dirichlet slice oracle)", worst <= 1e-4, f"worst log deviation {worst:.2e}")
        assert worst <= 1e-4

    def test_beta_pdf_exact_rationals(self):
        from modestop.numerics import beta_pdf

        worst = 0.0
        for a in range(1, 64):
            for b in range(1, 65 - a):
                for x in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
                    exact = (
                        x ** (a - 1)
                        * (1 - x) ** (b - 1)
                        * Fraction(
                            math.factorial(a + b - 1),
                            math.factorial(a - 1) * math.factorial(b - 1),
                        )
                    )
                    got = beta_pdf(float(x), a, b)
                    if exact != 0:
                        worst = max(worst, abs(got / float(exact) - 1.0))
        _report("12d (beta pdf vs exact rationals)", worst <= 1e-10, f"worst rel err {worst:.2e}")
        assert worst <= 1e-10
