"""The host-free count line's helpers (``benchmarks/counts.py``)."""

import subprocess

from benchmarks import counts


def test_a_checkout_outside_git_gets_the_fixed_label(tmp_path):
    # A ``git archive`` copy has no .git: the line keeps a label, not a crash.
    (tmp_path / "src").mkdir()
    assert counts.commit(tmp_path) == counts.NO_COMMIT


def test_a_git_checkout_gets_its_commit(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "a.txt").write_text("a")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    label = counts.commit(tmp_path)
    assert label != counts.NO_COMMIT and len(label) == 12
    (tmp_path / "a.txt").write_text("b")
    assert counts.commit(tmp_path) == label + "-dirty"


def test_defaulted_params_counts_public_functions_and_inits(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "m.py").write_text(
        "def f(a, b=1, *, c=2, d): pass\n"
        "def _private(a=1): pass\n"
        "class C:\n"
        "    def __init__(self, x=0, y=None): pass\n"
        "    def method(self, z=3): pass\n"
        "    def _helper(self, w=4): pass\n"
        "    def __repr__(self, v=5): pass\n"
    )
    assert counts.defaulted_params(tmp_path) == 5  # b, c, x, y, z
