import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from leadopt.cli import main
from leadopt.files import write_atomic
from leadopt.molgraph import parse

LEADS = ["CCCCCCO", "CCCCCCCO", "CCCCCNC"]


@pytest.fixture()
def workspace(tmp_path):
    corpus = tmp_path / "corpus.smi"
    rows = [
        "CCCCCCN\tact=0.60", "CCCCCCF\tact=0.70", "CCCCCCS\tact=0.40",
        "CCCCCCCN\tact=0.65", "CCCCCCO\tact=0.50",
    ]
    corpus.write_text("\n".join(rows) + "\n")

    table = tmp_path / "act.tsv"
    table.write_text(
        "CCCCCCO\t0.50\nCCCCCCN\t0.60\nCCCCCCF\t0.70\nCCCCCCCO\t0.95\n"
        "CCCCCC\t0.30\nCCCCCNC\t0.45\nCCCCCCCN\t0.65\nCCCCCCS\t0.40\n"
    )
    objective = tmp_path / "act.yaml"
    objective.write_text(
        "name: act\n"
        "gamma: 0.4\n"
        "budget: 60\n"
        "oracles:\n"
        "  - {name: act, kind: table, path: act.tsv, direction: 1, default: 0.0}\n"
        "terms:\n"
        "  - oracle: act\n"
        "    success: {comparator: '>=', threshold: 0.9}\n"
    )
    leads = tmp_path / "leads.smi"
    leads.write_text("\n".join(LEADS) + "\n")
    return tmp_path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuildBankAndRetrieve:
    def test_build_bank(self, workspace, capsys):
        code, out, err = run_cli(
            capsys, "build-bank", "--corpus", workspace / "corpus.smi",
            "--out", workspace / "bank",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["records"] == 5
        assert (workspace / "bank.bank.jsonl").exists()
        assert (workspace / "bank.fp.bin").exists()

    def test_aromatic_phosphorus_and_boron_rows_under_plogp(self, workspace, capsys):
        corpus = workspace / "aromatic.smi"
        corpus.write_text("c1ccpc1\tact=0.5\nc1ccbc1\tact=0.4\nCCO\tact=0.3\n")
        code, out, err = run_cli(capsys, "build-bank", "--corpus", corpus,
                                 "--out", workspace / "bank", "--objective", "plogp")
        assert code == 0, err
        assert json.loads(out)["records"] == 3
        leads = workspace / "aromatic_leads.smi"
        leads.write_text("c1ccpc1\n")
        code, _, err = run_cli(capsys, "run", "--leads", leads, "--objective", "plogp",
                               "--policy", "random", "--budget", "10", "--generations", "1",
                               "--rollouts", "2", "--turns", "2", "--seed", "3",
                               "--out", workspace / "out")
        assert code == 0, err

    def test_retrieve_prints_hint_block(self, workspace, capsys):
        run_cli(capsys, "build-bank", "--corpus", workspace / "corpus.smi",
                "--out", workspace / "bank")
        code, out, err = run_cli(
            capsys, "retrieve", "--bank", workspace / "bank",
            "--query", "CCCCCCO", "--lead", "CCCCCCO",
            "--objective", workspace / "act.yaml",
        )
        assert code == 0, err
        assert out.splitlines()[0] == (
            "=== SIMILAR HIGH-SCORING MOLECULES FOR REFERENCE ==="
        )
        assert "Learn from structural patterns, but do not copy directly." in out

    def test_retrieve_bad_smiles_error_json(self, workspace, capsys):
        run_cli(capsys, "build-bank", "--corpus", workspace / "corpus.smi",
                "--out", workspace / "bank")
        code, out, err = run_cli(
            capsys, "retrieve", "--bank", workspace / "bank",
            "--query", "C1CC", "--lead", "CCCCCCO",
            "--objective", workspace / "act.yaml",
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "UnmatchedRingError"


class TestRunEvalSkills:
    def run_once(self, workspace, capsys, out_name="out", seed="7"):
        return run_cli(
            capsys, "run",
            "--leads", workspace / "leads.smi",
            "--objective", workspace / "act.yaml",
            "--out", workspace / out_name,
            "--policy", "random",
            "--budget", "40", "--generations", "2", "--rollouts", "3",
            "--turns", "3", "--seed", seed,
        )

    def test_run_writes_report_and_trajectories(self, workspace, capsys):
        code, out, err = self.run_once(workspace, capsys)
        assert code == 0, err
        assert (workspace / "out" / "report.json").exists()
        assert (workspace / "out" / "report.tsv").exists()
        assert (workspace / "out" / "trajectories.jsonl").exists()
        assert out.startswith("task\tSR(%)\tSim\tRI")

    def test_run_deterministic_bytes(self, workspace, capsys):
        self.run_once(workspace, capsys, out_name="a", seed="7")
        self.run_once(workspace, capsys, out_name="b", seed="7")
        for name in ("report.json", "report.tsv", "trajectories.jsonl"):
            assert (workspace / "a" / name).read_bytes() == \
                (workspace / "b" / name).read_bytes()

    @pytest.mark.parametrize("config,flags,budget", [
        ("", [], 20),
        ("budget: 30\n", [], 30),
        ("budget: 30\n", ["--budget", "25"], 25),
    ])
    def test_budget_from_flag_then_config_then_objective(
        self, workspace, capsys, config, flags, budget
    ):
        # an unreachable threshold, so a lead spends all it may unless its
        # search runs out of new molecules first
        objective = workspace / "act.yaml"
        objective.write_text(objective.read_text().replace("budget: 60", "budget: 20")
                             .replace("threshold: 0.9", "threshold: 2.0"))
        (workspace / "run.yaml").write_text(config or "{}\n")
        code, _, err = run_cli(
            capsys, "run", "--leads", workspace / "leads.smi", "--objective", objective,
            "--config", workspace / "run.yaml", "--out", workspace / "out",
            "--policy", "random", "--generations", "6", "--rollouts", "16",
            "--seed", "7", *flags,
        )
        assert code == 0, err
        report = json.loads((workspace / "out" / "report.json").read_text())
        calls = [lead["calls_used"] for lead in report["leads"]]
        assert max(calls) == budget, calls

    def test_eval_recomputes_aggregates(self, workspace, capsys):
        self.run_once(workspace, capsys)
        code, out, err = run_cli(capsys, "eval", "--report", workspace / "out")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["leads"] == len(LEADS)
        assert all(v == 0.0 for v in payload["recomputation_drift"].values())

    def test_malformed_wire_endpoint_fails_before_any_lead(
        self, workspace, capsys, monkeypatch
    ):
        from leadopt import cli

        searched = []
        monkeypatch.setattr(cli, "optimize_lead",
                            lambda *args, **kwargs: searched.append(args))
        code, out, err = run_cli(
            capsys, "run", "--leads", workspace / "leads.smi",
            "--objective", workspace / "act.yaml", "--out", workspace / "out",
            "--policy", "wire:foo",
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError", "message": "unknown endpoint scheme 'foo'",
        }
        assert searched == [] and not (workspace / "out").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--temp0", "nan"], "temp0 must be finite, not nan"),
        (["--temp-step", "inf"], "temp_step must be finite, not inf"),
        (["--harvest-skills", "--skill-capacity", "0"],
         "--skill-capacity must be at least 1"),
        (["--skill-bank", "skills.jsonl", "--skill-capacity", "0"],
         "--skill-capacity must be at least 1"),
    ])
    def test_bad_setting_fails_before_any_lead(
        self, workspace, capsys, monkeypatch, flags, message
    ):
        from leadopt import cli

        searched = []
        monkeypatch.setattr(cli, "optimize_lead",
                            lambda *args, **kwargs: searched.append(args))
        monkeypatch.chdir(workspace)
        code, out, err = run_cli(
            capsys, "run", "--leads", workspace / "leads.smi",
            "--objective", workspace / "act.yaml", "--out", workspace / "out",
            "--policy", "random", *flags,
        )
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert searched == [] and not (workspace / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("", "objective {}: the file must be a mapping, not NoneType"),
        ("terms:\n  - act\n", "objective {}: each term must be a mapping, not str"),
        ("terms:\n  - {oracle: qed_lite, weight: .nan, success: {threshold: 0.9}}\n",
         "term weight must be finite, not nan"),
    ])
    def test_malformed_objective_fails_before_any_lead(
        self, workspace, capsys, monkeypatch, text, message
    ):
        # it crashed with an AttributeError, or wrote NaN scores, which are
        # not JSON, into the trajectories
        from leadopt import cli

        searched = []
        monkeypatch.setattr(cli, "optimize_lead",
                            lambda *args, **kwargs: searched.append(args))
        bad = workspace / "bad.yaml"
        bad.write_text(text)
        code, out, err = run_cli(
            capsys, "run", "--leads", workspace / "leads.smi", "--objective", bad,
            "--out", workspace / "out", "--policy", "random",
        )
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message.format(bad)}
        assert searched == [] and not (workspace / "out").exists()

    def test_eval_empty_report_fails(self, workspace, capsys):
        bad = workspace / "empty.json"
        bad.write_text(json.dumps({"leads": [], "aggregates": {}}))
        code, out, err = run_cli(capsys, "eval", "--report", bad)
        assert code == 1
        assert "no leads" in json.loads(err)["message"]

    @pytest.mark.parametrize("payload, message", [
        (None, "the file must be a mapping"),
        ([], "the file must be a mapping"),
        ({"leads": 5}, "'leads' must be a list"),
        ({"leads": [5]}, "each lead must be a mapping"),
        ({"leads": [{"sim": 1.0, "ri": 0.0}]}, "each lead's 'success' must be true or false"),
        ({"leads": [{"success": "yes", "sim": 1.0, "ri": 0.0}]},
         "each lead's 'success' must be true or false"),
        ({"leads": [{"success": True, "sim": "a", "ri": 0.0}]},
         "each lead's 'sim' must be a finite number"),
        ({"leads": [{"success": True, "sim": 1.0, "ri": float("nan")}]},
         "each lead's 'ri' must be a finite number"),
        ({"leads": [], "aggregates": [1]}, "'aggregates' must be a mapping"),
        ({"leads": [], "aggregates": {"SR": "x"}}, "the stored 'SR' must be a finite number"),
    ])
    def test_eval_malformed_report_names_the_field(self, workspace, capsys, payload, message):
        # each failed with an AttributeError, a KeyError or a TypeError
        bad = workspace / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "eval", "--report", bad)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": f"report {bad}: {message}"}

    def test_skills_harvest_and_list(self, workspace, capsys):
        # hand-built trajectory with one clear improvement
        lead = parse("CCCCCCO").canonical
        rows = [
            {"trajectory": 0, "lead": lead, "lead_score": 0.5, "turn": 1,
             "action": "CCCCCCF", "reward": 1.0, "score": 0.7, "valid": True,
             "injected_source": None, "terminal_reason": "max_turns"},
        ]
        trajs = workspace / "trajs.jsonl"
        trajs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        bank_path = workspace / "skills.jsonl"
        code, out, err = run_cli(
            capsys, "skills", "harvest", "--trajectories", trajs,
            "--objective", workspace / "act.yaml", "--bank", bank_path,
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["cards"] == 1 and payload["inserted"] == 1

        code, out, err = run_cli(capsys, "skills", "list", "--bank", bank_path)
        assert code == 0
        entry = json.loads(out.splitlines()[0])
        assert entry["task"] == "act"
        assert entry["text"].endswith(".")

    def test_skills_harvest_without_improvement(self, workspace, capsys):
        lead = parse("CCCCCCO").canonical
        rows = [
            {"trajectory": 0, "lead": lead, "lead_score": 0.5, "turn": 1,
             "action": "CCCCCCS", "reward": -1.0, "score": 0.4, "valid": True,
             "injected_source": None, "terminal_reason": "max_turns"},
        ]
        trajs = workspace / "trajs.jsonl"
        trajs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        bank_path = workspace / "skills.jsonl"
        code, out, err = run_cli(
            capsys, "skills", "harvest", "--trajectories", trajs,
            "--objective", workspace / "act.yaml", "--bank", bank_path,
        )
        assert code == 0, err
        assert json.loads(out) == {
            "trajectories": 1, "cards": 0, "inserted": 0, "merged": 0,
            "evicted": [], "bank_size": 0,
        }
        assert bank_path.read_text() == ""

    def test_skills_harvest_rejects_a_nan_delta(self, workspace, capsys):
        # no improvement exceeds a NaN, so it harvested nothing, unwarned
        lead = parse("CCCCCCO").canonical
        row = {"trajectory": 0, "lead": lead, "lead_score": 0.5, "turn": 1,
               "action": "CCCCCCF", "reward": 1.0, "score": 0.7, "valid": True,
               "injected_source": None, "terminal_reason": "max_turns"}
        trajs = workspace / "trajs.jsonl"
        trajs.write_text(json.dumps(row) + "\n")
        bank_path = workspace / "skills.jsonl"
        code, out, err = run_cli(
            capsys, "skills", "harvest", "--trajectories", trajs,
            "--objective", workspace / "act.yaml", "--bank", bank_path, "--delta", "nan",
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": "delta must be finite, not nan"}
        assert not bank_path.exists()

    def test_skills_evict_report(self, workspace, capsys):
        lead = parse("CCCCCCO").canonical
        rows = [
            {"trajectory": 0, "lead": lead, "lead_score": 0.5, "turn": 1,
             "action": "CCCCCCF", "reward": 1.0, "score": 0.7, "valid": True,
             "injected_source": None, "terminal_reason": "max_turns"},
            {"trajectory": 1, "lead": lead, "lead_score": 0.5, "turn": 1,
             "action": "CCCCCCN", "reward": 0.5, "score": 0.6, "valid": True,
             "injected_source": None, "terminal_reason": "max_turns"},
        ]
        trajs = workspace / "trajs.jsonl"
        trajs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        bank_path = workspace / "skills.jsonl"
        run_cli(capsys, "skills", "harvest", "--trajectories", trajs,
                "--objective", workspace / "act.yaml", "--bank", bank_path)
        code, out, err = run_cli(
            capsys, "skills", "evict-report", "--bank", bank_path,
            "--capacity", "1",
        )
        assert code == 0, err
        summary = json.loads(out)
        assert summary["act"]["cards"] == 2
        assert summary["act"]["retained"] == 1
        assert len(summary["act"]["evicted"]) == 1


    def test_skills_list_skips_malformed_lines(self, workspace, capsys):
        lead = parse("CCCCCCO").canonical
        rows = [
            {"trajectory": 0, "lead": lead, "lead_score": 0.5, "turn": 1,
             "action": "CCCCCCF", "reward": 1.0, "score": 0.7, "valid": True,
             "injected_source": None, "terminal_reason": "max_turns"},
        ]
        trajs = workspace / "trajs.jsonl"
        trajs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        bank_path = workspace / "skills.jsonl"
        run_cli(capsys, "skills", "harvest", "--trajectories", trajs,
                "--objective", workspace / "act.yaml", "--bank", bank_path)
        good = bank_path.read_text()
        bank_path.write_text('{"task": "act"}\nnot json\n' + good)
        code, out, err = run_cli(capsys, "skills", "list", "--bank", bank_path)
        assert code == 0, err
        assert [json.loads(line)["task"] for line in out.splitlines()] == ["act"]


SUMMARIZER_STUB = """\
import os, sys
with open(sys.argv[1], "a") as log:
    log.write(f"{os.getpid()}\\n")
for n, line in enumerate(sys.stdin):
    if n == int(sys.argv[2]):
        break
    sys.stdout.write("OK Swap the tail group.\\n")
    sys.stdout.flush()
"""


class TestExternalSummarizer:
    """`skills harvest --summarizer external:proc:...` against a stub that
    logs its PID when it starts and answers its first `answers` requests."""

    def harvest(self, workspace, capsys, answers):
        lead = parse("CCCCCCO").canonical
        rows = [
            {"trajectory": t, "lead": lead, "lead_score": 0.5, "turn": 1,
             "action": action, "reward": 1.0, "score": 0.7, "valid": True,
             "injected_source": None, "terminal_reason": "max_turns"}
            for t, action in enumerate(["CCCCCCF", "CCCCCCN", "CCCCCCCO", "CCCCCCS"])
        ]
        trajs = workspace / "trajs.jsonl"
        trajs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        stub, pids = workspace / "stub.py", workspace / "pids.log"
        stub.write_text(SUMMARIZER_STUB)
        bank = workspace / "skills.jsonl"
        code, out, err = run_cli(
            capsys, "skills", "harvest", "--trajectories", trajs,
            "--objective", workspace / "act.yaml", "--bank", bank,
            "--summarizer", f"external:proc:{sys.executable} {stub} {pids} {answers}",
        )
        assert code == 0, err
        assert json.loads(out)["cards"] == 4
        texts = [json.loads(line)["text"] for line in bank.read_text().splitlines()]
        return texts, [int(pid) for pid in pids.read_text().split()]

    def test_one_child_serves_every_card(self, workspace, capsys):
        texts, pids = self.harvest(workspace, capsys, answers=99)
        assert texts == ["Swap the tail group."] * 4
        assert len(pids) == 1
        with pytest.raises(ProcessLookupError):  # closed when the command ends
            os.kill(pids[0], 0)

    def test_a_failed_request_falls_back_for_its_card(self, workspace, capsys):
        # the first child answers two cards and exits on the third request:
        # card 3 falls back to the template, and card 4 reaches a fresh child
        texts, pids = self.harvest(workspace, capsys, answers=2)
        assert texts[:2] == ["Swap the tail group."] * 2
        assert not texts[2].startswith("Swap")
        assert texts[2].endswith(" to improve the target score.")
        assert texts[3] == "Swap the tail group."
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_failed_open_falls_back_for_every_card(self, workspace, capsys):
        lead = parse("CCCCCCO").canonical
        trajs = workspace / "trajs.jsonl"
        trajs.write_text(json.dumps(
            {"trajectory": 0, "lead": lead, "lead_score": 0.5, "turn": 1,
             "action": "CCCCCCF", "reward": 1.0, "score": 0.7, "valid": True,
             "injected_source": None, "terminal_reason": "max_turns"}) + "\n")
        bank = workspace / "skills.jsonl"
        code, out, err = run_cli(
            capsys, "skills", "harvest", "--trajectories", trajs,
            "--objective", workspace / "act.yaml", "--bank", bank,
            "--summarizer", f"external:proc:{workspace / 'no-such-summarizer'}",
        )
        assert code == 0, err
        text = json.loads(bank.read_text())["text"]
        assert text.endswith(" to improve the target score.")


    def test_a_malformed_endpoint_fails_when_the_command_starts(self, workspace, capsys):
        bank = workspace / "skills.jsonl"
        code, out, err = run_cli(
            capsys, "skills", "harvest", "--trajectories", workspace / "no-trajs.jsonl",
            "--objective", workspace / "act.yaml", "--bank", bank,
            "--summarizer", "external:foo",
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError", "message": "unknown endpoint scheme 'foo'",
        }
        assert not bank.exists()


# Both stubs log their PID when they start. The oracle answers `ERR model
# down` from its `sys.argv[2]`-th request on; the policy proposes a longer
# alcohol on every request, so that each proposal is a new molecule.
ORACLE_STUB = """\
import os, sys
with open(sys.argv[1], "a") as log:
    log.write(f"{os.getpid()}\\n")
for n, line in enumerate(sys.stdin, 1):
    reply = "ERR model down" if n >= int(sys.argv[2]) else "OK 0.1"
    sys.stdout.write(reply + "\\n")
    sys.stdout.flush()
"""

POLICY_STUB = """\
import os, sys
with open(sys.argv[1], "a") as log:
    log.write(f"{os.getpid()}\\n")
for n, line in enumerate(sys.stdin, 1):
    sys.stdout.write("OK " + "C" * n + "O\\n")
    sys.stdout.flush()
"""


class TestCommandsCloseTheirTransports:
    """No child of an external oracle or a wire policy outlives the command
    that spawned it, whether the command succeeds or fails."""

    def objective(self, workspace, fail_from):
        (workspace / "oracle.py").write_text(ORACLE_STUB)
        endpoint = (f"proc:{sys.executable} {workspace / 'oracle.py'} "
                    f"{workspace / 'oracle.pids'} {fail_from}")
        objective = workspace / "wired.yaml"
        objective.write_text(
            "name: wired\n"
            "gamma: 0.0\n"
            "oracles:\n"
            f"  - {{name: wired, kind: external, endpoint: {json.dumps(endpoint)}}}\n"
            "terms:\n"
            "  - oracle: wired\n"
            "    success: {comparator: '>=', threshold: 99}\n"
        )
        return objective

    def run(self, workspace, capsys, fail_from):
        (workspace / "policy.py").write_text(POLICY_STUB)
        policy = (f"wire:proc:{sys.executable} {workspace / 'policy.py'} "
                  f"{workspace / 'policy.pids'}")
        code, out, err = run_cli(
            capsys, "run", "--leads", workspace / "leads.smi",
            "--objective", self.objective(workspace, fail_from),
            "--out", workspace / "out", "--policy", policy, "--budget", 30,
        )
        return code, err, [
            int(pid)
            for log in ("oracle.pids", "policy.pids")
            for pid in (workspace / log).read_text().split()
        ]

    def assert_gone(self, pids):
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_run_that_succeeds(self, workspace, capsys):
        code, err, pids = self.run(workspace, capsys, fail_from=10**6)
        assert code == 0, err
        assert len(pids) == 2
        self.assert_gone(pids)

    def test_a_run_that_fails(self, workspace, capsys):
        code, err, pids = self.run(workspace, capsys, fail_from=20)
        assert code == 1
        assert json.loads(err) == {
            "error": "ProtocolError", "message": "oracle error: model down",
        }
        assert len(pids) == 2
        self.assert_gone(pids)
        assert not (workspace / "out").exists()

    def test_build_bank(self, workspace, capsys):
        code, out, err = run_cli(
            capsys, "build-bank", "--corpus", workspace / "corpus.smi",
            "--out", workspace / "bank",
            "--objective", self.objective(workspace, fail_from=10**6),
        )
        assert code == 0, err
        pids = [int(pid) for pid in (workspace / "oracle.pids").read_text().split()]
        assert len(pids) == 1
        self.assert_gone(pids)


class TestEvictingRunPin:
    """A harvesting run whose skill bank overflows its capacity: the bytes
    the eviction path writes stay pinned (86 cards harvested, 40 kept,
    listed oldest first), and so do the exemplar bank files it reads."""

    CORPUS = Path(__file__).parent / "fixtures" / "corpus_500.smi"
    SHA256 = {
        "bank.bank.jsonl":
            "d91e7f4c9e061e96352bb212220eb004fb6506808a97835addb9af0cc7ba669d",
        "bank.fp.bin":
            "119cc312f213fae84a31c9b37412041f81209ebd269c0bf8565abc82db3c7c10",
        "out/report.json":
            "8d36d50ef803e767984badd97a1972e415b17c6ab8cd744db06c90d493c00cda",
        "out/trajectories.jsonl":
            "9718fb2dab228b8a06c6f7c85175763980567ad2c065f0b6bb16d4b427f75282",
        "skills.jsonl":
            "4d7822ba5c45b43a04dd1339c2a8451dece21c6e334a2db6ab11365aeda0676e",
    }

    def test_outputs_match_pinned_digests(self, tmp_path, capsys):
        rows = [line for line in self.CORPUS.read_text().splitlines()
                if line and not line.startswith("#")]
        (tmp_path / "leads.smi").write_text("\n".join(rows[:8]) + "\n")
        code, _, err = run_cli(capsys, "build-bank", "--corpus", self.CORPUS,
                               "--out", tmp_path / "bank", "--objective", "qed")
        assert code == 0, err
        code, _, err = run_cli(
            capsys, "run", "--leads", tmp_path / "leads.smi", "--objective", "qed",
            "--policy", "greedy", "--exemplar-bank", tmp_path / "bank",
            "--skill-bank", tmp_path / "skills.jsonl", "--skill-capacity", "40",
            "--harvest-skills", "--budget", "200", "--generations", "6",
            "--rollouts", "16", "--seed", "7", "--out", tmp_path / "out",
        )
        assert code == 0, err
        assert len((tmp_path / "skills.jsonl").read_text().splitlines()) == 40
        assert {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.SHA256
        } == self.SHA256


class TestWriteAtomic:
    def test_text_and_bytes_land_whole(self, tmp_path):
        target = tmp_path / "new" / "dir" / "out.txt"
        assert write_atomic(target, "caf\u00e9\n") == target
        assert target.read_bytes() == "caf\u00e9\n".encode("utf-8")
        write_atomic(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
        assert [p.name for p in target.parent.iterdir()] == ["out.txt"]

    def test_failed_write_keeps_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(TypeError):
            write_atomic(target, 42)
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestCredit:
    def test_gae_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "credit", "gae", "--rewards", "0,1", "--values", "0,0,0",
            "--gamma", "0.99", "--lambda", "0.95",
        )
        assert code == 0, err
        values = [float(x) for x in out.strip().split(",")]
        assert values == pytest.approx([0.9405, 1.0], abs=1e-12)

    def test_gae_length_error(self, capsys):
        code, out, err = run_cli(
            capsys, "credit", "gae", "--rewards", "0,1", "--values", "0,0",
        )
        assert code == 1
        assert json.loads(err)["error"] == "LengthMismatchError"


class TestHelp:
    @pytest.mark.parametrize("command", [
        ["run"], ["retrieve"], ["skills", "harvest"], ["credit", "gae"],
    ])
    def test_help_lists_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "default" in out

    @pytest.mark.parametrize("command", [["build-bank"], ["eval"]])
    def test_help_exits_clean(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--help"])
        assert excinfo.value.code == 0

    def test_run_help_shows_table_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        for token in ["500", "0.4", "5", "20", "32", "0.9", "0.1", "2.0", "1000"]:
            assert token in out
