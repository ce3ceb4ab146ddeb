import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_file.py"
PROBE = ROOT / "tools" / "gc_probe.py"


@pytest.fixture(scope="module")
def bench_file():
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.org",
         *args],
        capture_output=True, text=True, check=True)
    return done.stdout.strip()


class TestGitState:
    def test_clean_tree_keeps_its_rev(self, bench_file, tmp_path):
        git(tmp_path, "init", "-q")
        (tmp_path / "a.py").write_text("x = 1\n")
        git(tmp_path, "add", "a.py")
        git(tmp_path, "commit", "-q", "-m", "one")
        rev = git(tmp_path, "rev-parse", "HEAD")
        assert bench_file._git_state(tmp_path, rev) == {"git_rev": rev, "git_dirty": False}

    @pytest.mark.parametrize("change", ["modified", "untracked"])
    def test_modified_tree_has_no_rev(self, bench_file, tmp_path, change):
        git(tmp_path, "init", "-q")
        (tmp_path / "a.py").write_text("x = 1\n")
        git(tmp_path, "add", "a.py")
        git(tmp_path, "commit", "-q", "-m", "one")
        rev = git(tmp_path, "rev-parse", "HEAD")
        if change == "modified":
            (tmp_path / "a.py").write_text("x = 2\n")
        else:
            (tmp_path / "b.py").write_text("y = 1\n")
        assert bench_file._git_state(tmp_path, rev) == {"git_rev": None, "git_dirty": True}

    def test_outside_a_checkout(self, bench_file, tmp_path):
        assert bench_file._git_state(tmp_path, None) == {"git_rev": None, "git_dirty": None}


def runs(*digests: dict, first_seed: int = 41) -> dict:
    return {"runs": [{"seed": first_seed + k, "digests": d} for k, d in enumerate(digests)]}


# the fixture's hashed files: the exemplar bank, then the run's outputs
FIXTURE_SHA = {"bank.bank.jsonl": "j", "bank.fp.bin": "f", "report.json": "r",
               "trajectories.jsonl": "t", "skills.jsonl": "s"}


def trees(tree_workloads: dict, base_workloads: dict, *, tree_sha=None, base_sha=None,
          tree_lines: int = 100, base_lines: int = 100) -> dict:
    return {
        "tree": {"workloads": tree_workloads, "fixture": {"sha256": tree_sha or FIXTURE_SHA},
                 "environment": {"src_lines": tree_lines}},
        "baseline": {"workloads": base_workloads,
                     "fixture": {"sha256": base_sha or FIXTURE_SHA},
                     "environment": {"src_lines": base_lines}},
    }


class TestSameDigests:
    def test_search_invocations_compare_on_their_common_prefix(self, bench_file):
        assert bench_file._same_digests(
            {"bank": None, "invocations": ["a", "b", "c"]},
            {"bank": None, "invocations": ["a", "b"]})
        assert not bench_file._same_digests(
            {"bank": None, "invocations": ["a", "x", "c"]},
            {"bank": None, "invocations": ["a", "b"]})

    @pytest.mark.parametrize("key", ["bank", "stream"])
    def test_bank_and_stream_must_match(self, bench_file, key):
        base = {"bank": "b", "stream": "s"}
        assert bench_file._same_digests(dict(base), base)
        assert not bench_file._same_digests(dict(base, **{key: "other"}), base)

    def test_a_digest_one_side_lacks_differs(self, bench_file):
        assert not bench_file._same_digests({"bank": "b", "stream": "s"}, {"bank": "b"})


class TestAgreement:
    def test_equal_outputs(self, bench_file):
        search = runs({"bank": "k", "invocations": ["a", "b"]},
                      {"bank": "k", "invocations": ["c"]})
        serve = runs({"bank": "b", "stream": "s"}, {"bank": "b", "stream": "t"})
        longer = runs({"bank": "k", "invocations": ["a", "b", "z"]},
                      {"bank": "k", "invocations": ["c", "d"]})
        got = bench_file._agreement(trees(
            {"search-memory": longer, "memory-serve": serve},
            {"search-memory": search, "memory-serve": serve},
            tree_lines=90, base_lines=100))
        assert got == {
            "digests_equal": {"search-memory": {"41": True, "42": True},
                              "memory-serve": {"41": True, "42": True}},
            "fixture_sha256_equal": True,
            "src_lines_delta": -10,
        }

    def test_one_seed_and_the_fixture_differ(self, bench_file):
        base = runs({"bank": "b", "stream": "s"}, {"bank": "b", "stream": "t"})
        tree = runs({"bank": "b", "stream": "s"}, {"bank": "b", "stream": "changed"})
        sha = dict(FIXTURE_SHA, **{"skills.jsonl": "other"})
        got = bench_file._agreement(trees({"memory-serve": tree}, {"memory-serve": base},
                                          tree_sha=sha, tree_lines=112))
        assert got["digests_equal"] == {"memory-serve": {"41": True, "42": False}}
        assert got["fixture_sha256_equal"] is False
        assert got["src_lines_delta"] == 12


def probe(out: Path, *target: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(PROBE), "--out", str(out), *target],
                          cwd=cwd, env=env, capture_output=True, text=True)


class TestGcProbe:
    def test_counts_collections_and_keeps_the_exit_code(self, tmp_path):
        script = tmp_path / "cycles.py"
        script.write_text(
            "import gc, sys\n"
            "for _ in range(100):\n"
            "    ring = []\n"
            "    ring.append(ring)\n"
            "gc.collect()\n"
            "sys.exit(3)\n")
        done = probe(tmp_path / "gc.json", str(script), cwd=tmp_path)
        assert done.returncode == 3, done.stderr
        counts = json.loads((tmp_path / "gc.json").read_text())
        assert sorted(counts) == ["collected", "collections", "pause_s"]
        assert all(len(values) == 3 for values in counts.values())
        # the explicit collection is a generation-2 one, and every ring is
        # freed by some collection
        assert counts["collections"][2] >= 1
        assert sum(counts["collected"]) >= 100
        assert all(pause >= 0 for pause in counts["pause_s"])

    def test_a_run_through_the_probe_writes_the_same_bytes(self, tmp_path):
        rows = [line for line in (ROOT / "tests" / "fixtures" / "corpus_500.smi")
                .read_text().splitlines() if line and not line.startswith("#")]
        (tmp_path / "leads.smi").write_text("\n".join(rows[:2]) + "\n")
        run = ["run", "--leads", "leads.smi", "--objective", "qed", "--policy", "greedy",
               "--harvest-skills", "--budget", "20", "--generations", "2",
               "--rollouts", "3", "--seed", "7"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        plain = subprocess.run([sys.executable, "-m", "leadopt.cli", *run, "--out", "plain"],
                               cwd=tmp_path, env=env, capture_output=True, text=True)
        watched = probe(tmp_path / "gc.json", "leadopt.cli", *run, "--out", "watched",
                        cwd=tmp_path)
        assert plain.returncode == watched.returncode == 0, watched.stderr
        assert watched.stdout == plain.stdout
        for name in ("report.json", "trajectories.jsonl"):
            assert (tmp_path / "watched" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()
        assert json.loads((tmp_path / "gc.json").read_text())["collections"][0] > 0

    def test_the_fixture_record_holds_the_collector_counts(self, bench_file, monkeypatch):
        # the fixture as bench_file runs it, cut to two leads and a short run
        monkeypatch.setattr(bench_file, "FIXTURE_LEADS", 2)
        monkeypatch.setattr(bench_file, "FIXTURE_RUN", [
            "--objective", "qed", "--policy", "greedy", "--harvest-skills",
            "--budget", "20", "--generations", "2", "--rollouts", "3", "--seed", "7"])
        record = bench_file._fixture(ROOT)
        assert sorted(record["gc"]) == ["collected", "collections", "pause_s"]
        assert all(len(values) == 3 for values in record["gc"].values())
        assert sorted(record["sha256"]) == sorted(FIXTURE_SHA)
