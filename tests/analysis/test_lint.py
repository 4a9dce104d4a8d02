"""The static analyzer: every RPR rule fires on a crafted bad example,
stays quiet on the matching good example, and the repo's own src/ tree
is clean.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import PARSE_ERROR_CODE, lint_paths, lint_source, main
from repro.analysis.rules import RULES, LintRule, register_rule

REPO_ROOT = Path(__file__).resolve().parents[2]


def codes(findings) -> list[str]:
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# One bad example per rule (the >= 8 crafted fixtures of the acceptance
# criteria), paired with a clean counterpart.

BAD_EXAMPLES: dict[str, tuple[str, str]] = {
    "RPR001": (
        "module.py",
        "import numpy as np\n"
        "def f():\n"
        "    np.random.seed(0)\n"
        "    return np.random.rand(3)\n",
    ),
    "RPR002": (
        "module.py",
        "from repro.nn.module import Module\n"
        "class HalfLayer(Module):\n"
        "    def forward(self, x, training=False):\n"
        "        return x\n",
    ),
    "RPR003": (
        "module.py",
        "def accumulate(item, bucket=[]):\n"
        "    bucket.append(item)\n"
        "    return bucket\n",
    ),
    "RPR004": (
        "module.py",
        "def risky():\n"
        "    try:\n"
        "        return 1 / 0\n"
        "    except:\n"
        "        return None\n",
    ),
    "RPR005": (
        "pkg/__init__.py",
        '"""Package."""\n'
        "from os.path import join\n"
        '__all__ = ["join", "missing_name"]\n',
    ),
    "RPR007": (
        "src/repro/module.py",
        "def report(x):\n"
        '    print("value", x)\n',
    ),
    "RPR008": (
        "module.py",
        "def fancy_periodogram(y):\n"
        '    """Average the thing.  No shape documented."""\n'
        "    return y\n",
    ),
    "RPR009": (
        "src/repro/module.py",
        "class Widget:\n"
        "    def act(self):\n"
        "        return 1\n",
    ),
    "RPR010": (
        "module.py",
        "import time\n"
        "def elapsed(t0):\n"
        "    return time.time() - t0\n",
    ),
    "RPR011": (
        "src/repro/module.py",
        "import multiprocessing\n"
        "def fan_out(jobs):\n"
        "    with multiprocessing.Pool(4) as pool:\n"
        "        return pool.map(str, jobs)\n",
    ),
}

GOOD_EXAMPLES: dict[str, tuple[str, str]] = {
    "RPR001": (
        "module.py",
        "import numpy as np\n"
        "def f(rng: np.random.Generator):\n"
        "    rng2 = np.random.default_rng(42)\n"
        "    return rng.random(3) + rng2.random(3)\n",
    ),
    "RPR002": (
        "module.py",
        "from repro.nn.module import Module\n"
        "class FullLayer(Module):\n"
        "    def forward(self, x, training=False):\n"
        "        return x\n"
        "    def backward(self, grad):\n"
        "        return grad\n",
    ),
    "RPR003": (
        "module.py",
        "def accumulate(item, bucket=None):\n"
        "    bucket = [] if bucket is None else bucket\n"
        "    bucket.append(item)\n"
        "    return bucket\n",
    ),
    "RPR004": (
        "module.py",
        "def risky():\n"
        "    try:\n"
        "        return 1 / 0\n"
        "    except ZeroDivisionError as exc:\n"
        "        raise ValueError('bad denominator') from exc\n",
    ),
    "RPR005": (
        "pkg/__init__.py",
        '"""Package."""\n'
        "from os.path import join\n"
        '__all__ = ["join"]\n',
    ),
    "RPR007": (
        "scripts/run.py",
        "def report(x):\n"
        '    print("value", x)\n',
    ),
    "RPR008": (
        "module.py",
        "def fancy_periodogram(y):\n"
        '    """Average the thing.\n\n'
        "    Returns:\n"
        "        Powers, shape: ``(N,)``.\n"
        '    """\n'
        "    return y\n",
    ),
    "RPR009": (
        "src/repro/module.py",
        "class Widget:\n"
        '    """A documented widget."""\n'
        "    def act(self):\n"
        '        """Do the thing."""\n'
        "        return 1\n"
        "    def _helper(self):\n"
        "        return 2\n",
    ),
    "RPR010": (
        "module.py",
        "import time\n"
        "def elapsed(t0):\n"
        "    return time.monotonic() - t0\n",
    ),
    "RPR011": (
        "src/repro/module.py",
        "from repro.serving.workers import ProcessShardWorker\n"
        "def fan_out(factory):\n"
        "    return ProcessShardWorker(0, factory)\n",
    ),
}


@pytest.mark.parametrize("code", sorted(BAD_EXAMPLES))
def test_bad_example_is_caught_with_its_code(code):
    path, source = BAD_EXAMPLES[code]
    found = codes(lint_source(source, path=path))
    assert code in found, f"{code} not raised; got {found}"


@pytest.mark.parametrize("code", sorted(GOOD_EXAMPLES))
def test_good_example_is_clean(code):
    path, source = GOOD_EXAMPLES[code]
    found = codes(lint_source(source, path=path))
    assert code not in found, f"{code} false positive: {found}"


def test_every_registered_rule_has_a_bad_example():
    assert set(BAD_EXAMPLES) == set(RULES)
    assert len(RULES) >= 8


# ---------------------------------------------------------------------------
# Rule specifics.


def test_unseeded_default_rng_flagged():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert codes(lint_source(src)) == ["RPR001"]


def test_default_rng_reference_without_call_flagged():
    src = (
        "import numpy as np\nfrom dataclasses import field\n"
        "factory = field(default_factory=np.random.default_rng)\n"
    )
    assert "RPR001" in codes(lint_source(src))


def test_seeded_default_rng_clean():
    src = "import numpy as np\nrng = np.random.default_rng(1234)\n"
    assert codes(lint_source(src)) == []


def test_backward_without_forward_flagged():
    src = (
        "from repro.nn.module import Module\n"
        "class Odd(Module):\n"
        '    """Half a layer."""\n'
        "    def backward(self, grad):\n"
        '        """Backward half only."""\n'
        "        return grad\n"
    )
    assert codes(lint_source(src)) == ["RPR002"]


def test_non_module_class_not_held_to_pairing():
    src = (
        "class Featurizer:\n"
        '    """Not a Module."""\n'
        "    def forward(self, x):\n"
        '        """Pass through."""\n'
        "        return x\n"
    )
    assert codes(lint_source(src)) == []


def test_swallowed_specific_exception_flagged():
    src = "try:\n    pass\nexcept ValueError:\n    pass\n"
    assert codes(lint_source(src)) == ["RPR004"]


def test_all_missing_public_name_flagged():
    src = '"""Pkg."""\nfrom os.path import join, split\n__all__ = ["join"]\n'
    findings = lint_source(src, path="pkg/__init__.py")
    assert codes(findings) == ["RPR005"]
    assert "split" in findings[0].message


def test_all_duplicate_entry_flagged():
    src = '"""Pkg."""\nfrom os.path import join\n__all__ = ["join", "join"]\n'
    assert "RPR005" in codes(lint_source(src, path="pkg/__init__.py"))


def test_non_init_file_exempt_from_all_rule():
    src = "from os.path import join, split\n"
    assert codes(lint_source(src, path="pkg/helpers.py")) == []


def test_print_allowed_in_scripts_and_examples():
    src = 'print("hello")\n'
    for prefix in ("scripts", "examples"):
        assert codes(lint_source(src, path=f"{prefix}/tool.py")) == []
    for path in ("src/repro/x.py", "benchmarks/tool.py"):
        assert codes(lint_source(src, path=path)) == ["RPR007"]


def test_docstring_rule_exempts_nested_and_private():
    src = (
        "def outer():\n"
        '    """Documented."""\n'
        "    def inner():\n"  # nested: not public API
        "        return 1\n"
        "    return inner\n"
        "def _private():\n"
        "    return 2\n"
    )
    assert codes(lint_source(src, path="src/repro/x.py")) == []


def test_docstring_rule_exempts_property_setters():
    src = (
        "class Box:\n"
        '    """A box."""\n'
        "    @property\n"
        "    def value(self):\n"
        '        """The value."""\n'
        "        return self._v\n"
        "    @value.setter\n"
        "    def value(self, v):\n"
        "        self._v = v\n"
    )
    assert codes(lint_source(src, path="src/repro/x.py")) == []


def test_wall_clock_interval_flagged():
    src = "import time\nstart = time.time()\n"
    assert codes(lint_source(src)) == ["RPR010"]


def test_monotonic_and_perf_counter_clean():
    src = "import time\na = time.monotonic()\nb = time.perf_counter()\n"
    assert codes(lint_source(src)) == []


def test_epoch_stamp_suppression_allows_wall_clock():
    src = "import time\nstamp = time.time()  # reprolint: disable=RPR010\n"
    assert codes(lint_source(src)) == []


def test_pool_import_from_flagged():
    src = "from multiprocessing import Pool\n"
    assert codes(lint_source(src, path="src/repro/x.py")) == ["RPR011"]


def test_pool_via_dummy_and_alias_flagged():
    src = (
        "import multiprocessing as mp\n"
        "import multiprocessing.dummy\n"
        "a = mp.Pool(2)\n"
        "b = multiprocessing.dummy.Pool(2)\n"
    )
    assert codes(lint_source(src, path="src/repro/x.py")) == ["RPR011", "RPR011"]


def test_docstring_rule_skips_tests_and_scripts():
    src = "def test_something():\n    assert True\n"
    for prefix in ("tests", "scripts", "examples"):
        assert codes(lint_source(src, path=f"{prefix}/t.py")) == []


def test_parse_error_reported_as_rpr000():
    findings = lint_source("def broken(:\n", path="bad.py")
    assert codes(findings) == [PARSE_ERROR_CODE]


# ---------------------------------------------------------------------------
# Suppressions.


def test_trailing_suppression_silences_that_line_only():
    src = (
        "import numpy as np\n"
        "a = np.random.default_rng()  # reprolint: disable=RPR001\n"
        "b = np.random.default_rng()\n"
    )
    findings = lint_source(src)
    assert codes(findings) == ["RPR001"]
    assert findings[0].line == 3


def test_standalone_suppression_is_file_wide():
    src = (
        "# reprolint: disable=RPR001\n"
        "import numpy as np\n"
        "a = np.random.default_rng()\n"
        "b = np.random.rand(2)\n"
    )
    assert codes(lint_source(src)) == []


def test_suppression_of_other_code_does_not_leak():
    src = (
        "# reprolint: disable=RPR007\n"
        "import numpy as np\n"
        "a = np.random.default_rng()\n"
    )
    assert codes(lint_source(src)) == ["RPR001"]


# ---------------------------------------------------------------------------
# Registry.


def test_registry_rejects_duplicate_and_malformed_codes():
    class Dupe(LintRule):
        code = "RPR001"
        name = "dupe"
        description = "dupe"
        hint = "dupe"

    with pytest.raises(ValueError):
        register_rule(Dupe)

    class Malformed(LintRule):
        code = "X999"
        name = "malformed"
        description = "malformed"
        hint = "malformed"

    with pytest.raises(ValueError):
        register_rule(Malformed)


def test_select_restricts_rules():
    src = (
        "import numpy as np\n"
        "def f(bucket=[]):\n"
        "    np.random.seed(0)\n"
    )
    assert codes(lint_source(src, select=["RPR003"])) == ["RPR003"]


# ---------------------------------------------------------------------------
# CLI + the repo invariant.


def test_repo_src_tree_is_clean():
    report = lint_paths([str(REPO_ROOT / "src")])
    assert report.n_files > 50
    assert report.ok, "\n".join(
        f"{f.path}:{f.line} {f.code} {f.message}" for f in report.findings
    )


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nnp.random.seed(1)\n")
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert main([str(good)]) == 0
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out and "hint:" in out


def test_main_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text('def f(x=[]):\n    """Doc."""\n    return x\n')
    assert main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["n_findings"] == 1
    assert payload["findings"][0]["code"] == "RPR003"


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_module_invocation_matches_ci_contract(tmp_path):
    """`python -m repro.analysis.lint` is what CI runs; pin its exit codes."""
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nnp.random.seed(1)\n")
    env_src = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(bad)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "RPR001" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
