import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"


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
