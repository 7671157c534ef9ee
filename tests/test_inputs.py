"""The input rules every driver shares (``instances._int_at_least``,
``_probability``, ``_distinct``): every count argument rejects a float, a
bool and an int below its least value, naming the argument, before any draw;
and a delta too small for a rule's per-test budget is rejected by the delta
the caller gave."""

import pytest

from modestop import blockchain, theory
from modestop.blockchain import NodePool, run_verification, sweep_f
from modestop.elections import run_election, synthetic_election
from modestop.harness import ExperimentSpec
from modestop.instances import DiscreteInstance, SamplePath, TallyState, derive_stream
from modestop.stopping import (
    RULE_TOKENS,
    Generic1v1Rule,
    declaration_time,
    make_rule,
    run_mode_estimation,
)

P1 = DiscreteInstance((0.5, 0.25, 0.25))
ELECTION = synthetic_election()
POOL = NodePool(1600, 0.1, 20)

# (name in the message, least value, call(value, stream)); a call that takes
# no stream ignores it
COUNTS = {
    "declaration_time sample_cap": ("sample_cap", 1, lambda v, s: declaration_time(
        P1, "ppr-1v1", 0.01, SamplePath(P1, s), sample_cap=v)),
    "run_mode_estimation sample_cap": ("sample_cap", 1, lambda v, s: run_mode_estimation(
        P1, "kl-sn-1vr", 0.01, s, sample_cap=v)),
    "run_election sample_cap": ("sample_cap", 1, lambda v, s: run_election(
        ELECTION, "dcb", "ppr-1v1", 0.01, 200, s, sample_cap=v)),
    "run_election batch": ("batch size", 1, lambda v, s: run_election(
        ELECTION, "rr", "ppr-1v1", 0.01, v, s)),
    "run_verification step_cap": ("step_cap", 1, lambda v, s: run_verification(
        POOL, "ppr-1v1", 0.005, None, s, step_cap=v)),
    "sweep_f runs": ("runs", 1, lambda v, s: sweep_f(
        1600, 20, 2, 0.005, 0.1, [0.1], ["sprt"], v, 0)),
    "ExperimentSpec replications": ("replications", 1, lambda v, s: ExperimentSpec(
        P1.probs, "ppr-1v1", 0.01, v, 0)),
    "NodePool n_nodes": ("n_nodes", 1, lambda v, s: NodePool(v, 0.1, 1)),
    "NodePool batch_size": ("batch size", 1, lambda v, s: NodePool(1600, 0.1, v)),
    "NodePool n_answers": ("n_answers", 2, lambda v, s: NodePool(1600, 0.1, 20, v)),
    "TallyState K": ("K", 2, lambda v, s: TallyState(v)),
    **{
        f"make_rule {token} K": ("K", 2, lambda v, s, token=token: make_rule(token, v, 0.1))
        for token in RULE_TOKENS
    },
    "bound_report K": ("K", 2, lambda v, s: theory.bound_report(0.5, 0.25, v, 0.01)),
    "conjecture x_max": ("x_max", 2, lambda v, s: theory.verify_1v1_1vr_conjecture(v, 1, 1)),
    "conjecture y_max": ("y_max", 1, lambda v, s: theory.verify_1v1_1vr_conjecture(4, v, 1)),
    "conjecture f_max": ("f_max", 1, lambda v, s: theory.verify_1v1_1vr_conjecture(4, 1, v)),
    "conjecture K": ("K", 2, lambda v, s: theory.verify_1v1_1vr_conjecture(4, 1, 1, v)),
    "monotonicity a_max": ("a_max", 1, lambda v, s: theory.verify_beta_monotonicity(v, 1)),
    "monotonicity b_max": ("b_max", 1, lambda v, s: theory.verify_beta_monotonicity(1, v)),
}


@pytest.mark.parametrize("bad", ["float", "bool", "below"])
@pytest.mark.parametrize("case", COUNTS)
def test_count_rejected_by_name_before_any_draw(case, bad, monkeypatch):
    name, least, call = COUNTS[case]
    value, message = {
        "float": (2.5, f"{name} must be an int, got 2.5"),
        "bool": (True, f"{name} must be an int, got True"),
        "below": (least - 1, f"{name} must be >= {least}, got {least - 1}"),
    }[bad]
    monkeypatch.setattr(blockchain, "run_verification", lambda *a: pytest.fail("a run started"))
    stream = derive_stream(4, 2)
    state = stream.generator.bit_generator.state
    with pytest.raises(ValueError) as err:
        call(value, stream)
    assert str(err.value) == message
    assert stream.generator.bit_generator.state == state


@pytest.mark.parametrize("rule, delta, message", [
    ("ppr-1v1", 5e-324, "delta=5e-324 is too small at K=3: alpha must lie in (0, 1), got 0.0"),
    ("ppr-1vr", 5e-324, "delta=5e-324 is too small at K=3: alpha must lie in (0, 1), got 0.0"),
    ("kl-sn-1v1", 1e-90,
     "delta=1e-90 is too small at K=3: no KL-SN rate root gamma > 1 exists for alpha=5e-91"),
    # a trial failed with "math domain error" once its last pair budget underflowed
    ("ppr-adaptive", 5e-324, "delta=5e-324 is too small at K=3: the smallest pair budget is 0.0"),
])
def test_budget_too_small_is_rejected_by_delta(rule, delta, message):
    with pytest.raises(ValueError) as err:
        ExperimentSpec(P1.probs, rule, delta, 1, 0)
    assert str(err.value) == message


@pytest.mark.parametrize("rule, delta, message", [
    ("ppr-1v1", 1e-322,
     "delta=1e-322 is too small at K=3, C=50: delta must lie in (0, 1), got 0.0"),
    ("kl-sn-1vr", 1e-84, "delta=1e-84 is too small at K=3, C=50: delta=2e-86 is too small at "
     "K=3: no KL-SN rate root gamma > 1 exists for alpha=6.666666666666667e-87"),
])
def test_election_budget_too_small_is_rejected_by_delta(rule, delta, message):
    stream = derive_stream(0, 0)
    state = stream.generator.bit_generator.state
    with pytest.raises(ValueError) as err:
        run_election(ELECTION, "dcb", rule, delta, 200, stream)
    assert str(err.value) == message
    assert stream.generator.bit_generator.state == state


SPRT_TOO_SMALL = "delta=5e-324 is too small for the SPRT: its threshold is inf"


# an sprt run at such a delta spent its whole 1e6-batch cap, then raised
# SampleCapExceeded
@pytest.mark.parametrize("call", [
    lambda s: blockchain.sprt_threshold(5e-324, 1600, 20, 0.1),
    lambda s: run_verification(NodePool(1600, 0.1, 20, 10), "sprt", 5e-324, 0.2, s),
    lambda s: sweep_f(1600, 20, 10, 5e-324, 0.2, [0.1], ["sprt"], 2, 0),
], ids=["sprt_threshold", "run_verification", "sweep_f"])
def test_sprt_threshold_overflow_is_rejected_by_delta(call, monkeypatch):
    monkeypatch.setattr(blockchain, "run_verification", lambda *a: pytest.fail("a run started"))
    stream = derive_stream(0, 0)
    state = stream.generator.bit_generator.state
    with pytest.raises(ValueError) as err:
        call(stream)
    assert str(err.value) == SPRT_TOO_SMALL
    assert stream.generator.bit_generator.state == state


def test_unknown_engine_is_not_blamed_on_delta():
    with pytest.raises(ValueError, match=r"^unknown bound engine 'bogus'"):
        Generic1v1Rule("bogus", 3, 0.1)


class TestBlockchainCounts:
    """Counts that numpy would truncate or reject deep inside a run."""

    def test_float_node_count(self):
        # built colours [1440, 80, 80] while n_nodes stayed 1600.7
        with pytest.raises(ValueError) as err:
            NodePool(1600.7, 0.1, 20, 3)
        assert str(err.value) == "n_nodes must be an int, got 1600.7"

    def test_float_batch_size(self):
        # failed inside numpy with "nsample must be an integer" at the first draw
        with pytest.raises(ValueError) as err:
            NodePool(1600, 0.1, 20.0)
        assert str(err.value) == "batch size must be an int, got 20.0"

    def test_float_runs(self, monkeypatch):
        # raised numpy's TypeError, which the CLI does not catch
        monkeypatch.setattr(blockchain, "run_verification", lambda *a: pytest.fail("a run started"))
        with pytest.raises(ValueError) as err:
            sweep_f(1600, 20, 2, 0.005, 0.1, [0.1], ["sprt"], 2.5, 0)
        assert str(err.value) == "runs must be an int, got 2.5"
