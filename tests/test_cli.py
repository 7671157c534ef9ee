import csv
import hashlib

import pytest

from modestop import blockchain, harness, theory
from modestop.cli import main

# a cheap command line for each comma-separated list flag, to which the flag is appended
_LIST_FLAG_ARGV = {
    "--policy": ["blockchain-sim", "--runs", "2"],
    "--f": ["blockchain-sim", "--runs", "2"],
    "--probs": ["mode-sim", "--rule", "ppr-1v1", "--reps", "2"],
    "--p1": ["figure1", "--reps", "2"],
    "--deltas": ["figure1", "--reps", "2"],
}

TINY_ELECTION = "constituency,party,votes\nc0,A,70\nc0,B,30\nc1,A,65\nc1,B,35\nc2,B,80\nc2,A,20\n"


class TestModeSim:
    def test_basic_run(self, capsys, tmp_path):
        out = tmp_path / "summary.csv"
        trials = tmp_path / "trials.jsonl"
        code = main(
            [
                "mode-sim",
                "--probs",
                "0.5,0.25,0.25",
                "--rule",
                "ppr-1v1",
                "--delta",
                "0.05",
                "--reps",
                "10",
                "--seed",
                "3",
                "--out",
                str(out),
                "--trials",
                str(trials),
            ]
        )
        assert code == 0
        assert "mean" in capsys.readouterr().out
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["rule"] == "ppr-1v1"
        assert int(rows[0]["n"]) == 10
        assert len(trials.read_text().splitlines()) == 10

    def test_bad_probs_exit_code(self, capsys):
        assert main(["mode-sim", "--probs", "0.5,0.4", "--rule", "ppr-1v1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_rejects_check_every(self, capsys):
        # every rule is checked after every sample, so mode-sim takes no such flag
        argv = ["mode-sim", "--probs", "0.6,0.4", "--rule", "ppr-1v1", "--reps", "2",
                "--check-every", "7"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --check-every 7" in capsys.readouterr().err

    @pytest.mark.parametrize("probs", ["1,0", "1,0,0"])
    def test_rejects_adaptive_on_a_lone_value(self, probs, capsys):
        # ppr-adaptive never declares a lone answer: fail at once, not at the sample cap
        argv = ["mode-sim", "--probs", probs, "--rule", "ppr-adaptive", "--reps", "1"]
        assert main(argv) == 1
        shown = ", ".join(["1.0"] + ["0.0"] * probs.count(","))
        assert capsys.readouterr() == ("", (
            "error: ppr-adaptive never declares a lone answer, so it needs two values of "
            f"positive probability, got probs ({shown})\n"
        ))

    @pytest.mark.parametrize("command", [
        ["mode-sim", "--probs", "0.6,0.4", "--rule", "ppr-1v1", "--reps", "2"],
        ["figure1", "--p1", "0.9", "--reps", "2"],
    ])
    def test_rejects_fast(self, command, capsys):
        # --fast caps table1's slow instances; no other subcommand takes it
        with pytest.raises(SystemExit) as exc:
            main(command + ["--fast"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err


class TestBounds:
    def test_text_output(self, capsys):
        assert main(["bounds", "--p1", "0.65", "--p2", "0.35", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "lower" in out and "ppr_bernoulli_upper" in out

    def test_csv_output(self, capsys):
        assert main(["bounds", "--p1", "0.5", "--p2", "0.25", "--k", "3", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "quantity,samples"
        assert len(lines) == 5

    @pytest.mark.parametrize("p1, p2, k", [
        ("0.9", "0.8", "3"),  # p1 + p2 > 1
        ("0.6", "0.3", "2"),  # K = 2 needs p2 = 1 - p1
        ("0.5", "0.1", "4"),  # p1 + (K-1) p2 < 1
    ])
    def test_rejects_point_that_is_no_distribution(self, p1, p2, k, capsys):
        assert main(["bounds", "--p1", p1, "--p2", p2, "--k", k]) == 1
        assert capsys.readouterr() == ("", (
            f"error: need p1 + p2 <= 1 <= p1 + (K-1) p2, got p1={p1}, p2={p2}, K={k}\n"
        ))


class TestVerify:
    def test_conjecture_ok(self, capsys):
        assert main(["verify", "conjecture", "--x-max", "8", "--y-max", "8", "--f-max", "8"]) == 0

    def test_monotonic_ok(self):
        assert main(["verify", "monotonic", "--a-max", "16", "--b-max", "16"]) == 0

    def test_margin_ok(self):
        assert main(["verify", "thm3-margin"]) == 0

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_conjecture_rejects_bad_k(self, k, capsys):
        assert main(["verify", "conjecture", "--x-max", "4", "--k", k]) == 1
        assert capsys.readouterr() == ("", f"error: K must be >= 2, got {k}\n")

    @pytest.mark.parametrize("args, message", [
        (["--k", "1"], "K must be >= 2, got 1"),
        (["--delta", "1.5"], "delta must lie in (0, 1), got 1.5"),
    ])
    def test_margin_rejects_bad_point(self, args, message, capsys):
        point = ["--p1", "0.5", "--p2", "0.25", "--pj", "0.25"]
        assert main(["verify", "thm3-margin", *point, *args]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["conjecture", "--x-max", "-5"], "x_max must be >= 2, got -5"),
        (["conjecture", "--x-max", "1"], "x_max must be >= 2, got 1"),
        (["conjecture", "--y-max", "0"], "y_max must be >= 1, got 0"),
        (["conjecture", "--f-max", "-1"], "f_max must be >= 1, got -1"),
        (["monotonic", "--a-max", "0", "--b-max", "0"], "a_max must be >= 1, got 0"),
        (["monotonic", "--b-max", "0"], "b_max must be >= 1, got 0"),
    ])
    def test_rejects_sweep_that_checks_nothing(self, argv, message, capsys):
        assert main(["verify", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("args", [["--k", "1"], ["--delta", "5"], ["--k", "3"]])
    def test_margin_rejects_k_or_delta_without_point(self, args, capsys):
        assert main(["verify", "thm3-margin", *args]) == 1
        assert capsys.readouterr() == (
            "", "error: --k and --delta apply only to a --p1/--p2/--pj point\n"
        )

    def test_margin_rejects_point_that_is_no_distribution(self, capsys):
        point = ["--p1", "0.9", "--p2", "0.8", "--pj", "0.7"]
        assert main(["verify", "thm3-margin", *point]) == 1
        assert capsys.readouterr() == (
            "", "error: need p1 + p2 + (K-2) pj <= 1, got 2.4 at K=3\n"
        )

    def test_margin_point_defaults(self, monkeypatch):
        points = []
        monkeypatch.setattr(theory, "verify_thm3_margin", lambda *pt: points.append(pt) or True)
        assert main(["verify", "thm3-margin", "--p1", "0.5", "--p2", "0.25", "--pj", "0.25"]) == 0
        assert points == [(0.5, 0.25, 0.25, 3, 0.01)]

    @pytest.mark.parametrize("given, missing", [
        (["--p1", "0.5"], "--p2, --pj"),
        (["--p2", "0.25", "--pj", "0.2"], "--p1"),
    ])
    def test_margin_needs_all_three_probabilities(self, given, missing, capsys):
        assert main(["verify", "thm3-margin", *given]) == 1
        assert capsys.readouterr() == (
            "", f"error: --p1, --p2 and --pj go together; missing {missing}\n"
        )


class TestElectionSim:
    def test_synthetic_run(self, tmp_path, capsys):
        out = tmp_path / "election.csv"
        code = main(
            [
                "election-sim",
                "--data",
                "synthetic50",
                "--policy",
                "dcb",
                "--rule",
                "ppr-1v1",
                "--delta",
                "0.01",
                "--batch",
                "200",
                "--seeds",
                "2",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["policy"] == "dcb"
        assert rows[0]["correct"] == "True"

    def test_csv_file_input(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text(TINY_ELECTION)
        code = main(
            ["election-sim", "--data", str(data), "--policy", "rr", "--rule", "ppr-1v1",
             "--delta", "0.1", "--batch", "20", "--seeds", "1"]
        )
        assert code == 0


    def test_csv_bytes(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text(TINY_ELECTION)
        out = tmp_path / "election.csv"
        code = main(
            ["election-sim", "--data", str(data), "--policy", "rr", "--rule", "ppr-1v1",
             "--delta", "0.1", "--batch", "20", "--seeds", "2", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == (
            b"policy,rule,scheme,delta,seed,samples,winner,seats_resolved,correct\r\n"
            b"rr,ppr,1v1,0.1,0,280,A,3,True\r\n"
            b"rr,ppr,1v1,0.1,1,120,A,2,True\r\n"
        )

    def test_dcb_1vr_bytes(self, tmp_path, capsys):
        out = tmp_path / "election.csv"
        code = main(["election-sim", "--policy", "dcb", "--rule", "kl-sn-1vr", "--seeds", "2",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == (
            "seed 0: samples 30,200 winner alpha seats 34 correct True\n"
            "seed 1: samples 29,400 winner alpha seats 31 correct True\n"
            "mean samples over 2 seeds: 29,800\n"
        )
        assert out.read_bytes() == (
            b"policy,rule,scheme,delta,seed,samples,winner,seats_resolved,correct\r\n"
            b"dcb,kl-sn,1vr,0.01,0,30200,alpha,34,True\r\n"
            b"dcb,kl-sn,1vr,0.01,1,29400,alpha,31,True\r\n"
        )

    @pytest.mark.parametrize("policy", ["rr", "dcb"])
    def test_rejects_tied_seats(self, policy, tmp_path, capsys):
        data = tmp_path / "tie.csv"
        data.write_text("constituency,party,votes\nc0,A,70\nc0,B,30\nc1,A,35\nc1,B,65\n")
        assert main(["election-sim", "--data", str(data), "--policy", policy, "--seeds", "1"]) == 1
        assert capsys.readouterr() == (
            "", "error: no seat winner: A 1, B 1 tie for the most seats\n"
        )

    @pytest.mark.parametrize("policy, seed", [("rr", 9), ("dcb", 47)])
    def test_names_resolved_seat_tie(self, policy, seed, tmp_path, capsys):
        # A holds three seats, but at delta 0.9 the close c3 resolves for B
        # on these seeds, and the resolved seats end 2-2
        data = tmp_path / "close.csv"
        data.write_text(
            "constituency,party,votes\nc0,A,90\nc0,B,10\nc1,A,90\nc1,B,10\n"
            "c2,A,10\nc2,B,90\nc3,A,55\nc3,B,45\n"
        )
        code = main(["election-sim", "--data", str(data), "--policy", policy, "--delta", "0.9",
                     "--batch", "1", "--seeds", "1", "--seed", str(seed)])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: every constituency resolved, but the seats tie: A 2, B 2\n"
        )

    def test_rejects_unknown_rule(self, capsys):
        assert main(["election-sim", "--rule", "foo", "--seeds", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown rule token 'foo'; expected one of (")
        assert "'kl-sn-1vr'" in err

    @pytest.mark.parametrize("rule", ["ppr-md", "ppr-adaptive"])
    def test_rejects_rule_without_widths(self, rule, capsys):
        assert main(["election-sim", "--rule", rule, "--seeds", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: election rules must be <engine>-1v1 or <engine>-1vr, got {rule!r}\n"
        )

    @pytest.mark.parametrize("delta", ["1.5", "0", "-0.1"])
    def test_rejects_bad_delta(self, delta, capsys):
        assert main(["election-sim", "--delta", delta, "--seeds", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: delta must lie in (0, 1), got {float(delta)}\n")

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_rejects_no_seeds(self, seeds, capsys):
        assert main(["election-sim", "--seeds", seeds]) == 1
        assert capsys.readouterr().err == f"error: --seeds must be >= 1, got {seeds}\n"


class TestBlockchainSim:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "blockchain-sim",
                "--n",
                "400",
                "--m",
                "10",
                "--delta",
                "0.01",
                "--fmax",
                "0.1",
                "--f",
                "0.0,0.2",
                "--k",
                "2",
                "--policy",
                "sprt,ppr-1v1",
                "--runs",
                "25",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert {r["policy"] for r in rows} == {"sprt", "ppr-1v1"}

    def test_csv_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["blockchain-sim", "--n", "400", "--m", "10", "--delta", "0.01", "--fmax", "0.1",
             "--f", "0.1,0.2", "--k", "3", "--policy", "sprt,ppr-adaptive", "--runs", "5",
             "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == (
            b"f,policy,runs,mean_samples,stderr_samples,error_rate\r\n"
            b"0.1,sprt,5,10.0,0.0,0.0\r\n"
            b"0.1,ppr-adaptive,5,28.0,2.0,0.0\r\n"
            b"0.2,sprt,5,10.0,0.0,0.0\r\n"
            b"0.2,ppr-adaptive,5,32.0,3.7416573867739413,0.0\r\n"
        )

    def test_rejects_unknown_policy_before_any_run(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(blockchain, "run_verification", lambda *a: calls.append(a))
        assert main(["blockchain-sim", "--policy", "sprt,bogus", "--runs", "3000"]) == 1
        assert capsys.readouterr() == ("", "error: unknown policy 'bogus'; expected one of "
                                           "('sprt', 'ppr-1v1', 'ppr-1vr', 'ppr-adaptive')\n")
        assert calls == []

    @pytest.mark.parametrize("flags, message", [
        (["--policy", "ppr-1v1,ppr-1v1"], "policy 'ppr-1v1' is listed twice"),
        (["--f", "0.1,0.2,0.10"], "f 0.1 is listed twice"),
    ])
    def test_rejects_repeated_cell_before_any_run(self, monkeypatch, flags, message, capsys):
        calls = []
        monkeypatch.setattr(blockchain, "run_verification", lambda *a: calls.append(a))
        assert main(["blockchain-sim", "--runs", "3000", *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert calls == []

    @pytest.mark.parametrize("policy", ["ppr-1vr", "ppr-1v1", "ppr-adaptive", "sprt"])
    def test_rejects_bad_delta(self, policy, capsys):
        argv = ["blockchain-sim", "--policy", policy, "--k", "10", "--delta", "1.5", "--runs", "2"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: delta must lie in (0, 1), got 1.5\n")

    @pytest.mark.parametrize("flag", ["--policy", "--f", "--probs", "--p1", "--deltas"])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_rejects_empty_list(self, flag, value, capsys):
        assert main([*_LIST_FLAG_ARGV[flag], flag, value]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} {value!r} names no value\n")

    @pytest.mark.parametrize("flag", ["--f", "--probs", "--p1", "--deltas"])
    @pytest.mark.parametrize("value, bad", [("0.5,x", "x"), ("0.5, 1e ,0.5", "1e")])
    def test_rejects_bad_number(self, flag, value, bad, capsys):
        assert main([*_LIST_FLAG_ARGV[flag], flag, value]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} {bad!r} is not a number\n")


class TestSweeps:
    @pytest.mark.parametrize("argv, digest", [
        (["figure1", "--p1", "0.9", "--deltas", "0.2", "--reps", "3", "--seed", "5"],
         "c0a05a05d57bde70b7d898263b3a329340208fc4fa9608fc94160e01c18e5d9d"),
        # --fast caps P5 at 20 replications and leaves P2 at 21
        (["table1", "--fast", "--instances", "P2,P5", "--reps", "21", "--seed", "2"],
         "b4197e72b5e79e1bdcad9ac4d54aa5805c8889a52cbd96a2a410eb43f710d2b1"),
        (["blockchain-sim", "--n", "200", "--m", "10", "--delta", "0.05", "--fmax", "0.15",
          "--f", "0.0,0.25", "--k", "4", "--policy", "ppr-1v1,ppr-1vr,sprt", "--runs", "4",
          "--seed", "9"],
         "bdb9c6b45ea5e6b7d222cc599ba0c621e2a5cdd774d975ca036a73e394d9a75c"),
        # K = 2: every policy, the SPRT included, reads the same tally
        (["blockchain-sim", "--n", "200", "--m", "10", "--delta", "0.05", "--fmax", "0.15",
          "--f", "0.1,0.25", "--k", "2", "--policy", "sprt,ppr-1v1,ppr-1vr,ppr-adaptive",
          "--runs", "4", "--seed", "9"],
         "a69f601b94c3f209d9620522ddf78d54e7f154a1e845ab8ca678739e955dfdf5"),
    ], ids=["figure1", "table1", "blockchain-sim", "blockchain-sim-k2"])
    def test_csv_bytes(self, argv, digest, tmp_path):
        out = tmp_path / "summary.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("instances, bad", [("P7", "P7"), ("P1,p2", "p2")])
    def test_table1_rejects_unknown_instance(self, instances, bad, capsys):
        assert main(["table1", "--instances", instances, "--reps", "2"]) == 1
        assert capsys.readouterr() == (
            "",
            f"error: unknown Table-1 instance {bad!r}; "
            "expected one of ('P1', 'P2', 'P3', 'P4', 'P5', 'P6')\n",
        )

    @pytest.mark.parametrize("instances, twice", [("P1,P1", "P1"), ("P2,P5,P3,P5", "P5")])
    def test_table1_rejects_repeated_instance_before_any_run(
        self, monkeypatch, instances, twice, capsys
    ):
        calls = []
        monkeypatch.setattr(harness, "run_mode_estimation", lambda *a, **kw: calls.append(a))
        assert main(["table1", "--instances", instances, "--reps", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: Table-1 instance {twice!r} is listed twice\n")
        assert calls == []
