"""Shared fixtures plus the acceptance-criteria summary.

Any test named test_criterion_NN_* reports one PASS/FAIL/SKIP line at the
end of the run, so the acceptance status is readable at a glance without
digging through the pytest output.
"""

import re

import pytest

# helpers asserts the premises of its oracles; keep them under python -O
pytest.register_assert_rewrite("helpers")

CRITERIA = {
    1: "q = 1 strand of rational normal curves matches the closed form",
    2: "cubic Veronese surface: K_{7,2} = 1 under two-prime certification",
    3: "closed-form strand ranges: identities and table containment",
    4: "twisted-dual table pairs agree cell by cell",
    5: "Euler characteristic identity holds on complete tables",
    6: "boundary strands q = 0, n, n+1 are exactly as predicted",
    7: "Schur decomposition matches the plethysm oracle",
    8: "explicit cycles certify the whole K_{p,0} strand",
    9: "metamorphic, agreement, and reproducibility properties",
    10: "complete Betti table of the quartic Veronese surface, Euler and bounds checked",
}

results = {}
notes = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.skipped:
        results.setdefault(num, "SKIP")
    elif report.when == "call":
        results[num] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        results[num] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(results):
        line = f"ACCEPTANCE {num:2d} [{results[num]}] {CRITERIA.get(num, '')}"
        if num in notes:
            line += f"  ({notes[num]})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def session_store(tmp_path_factory):
    from syzlab.betti import ResultStore

    return ResultStore(str(tmp_path_factory.mktemp("acceptance-store")))


@pytest.fixture(scope="session")
def tables(session_store):
    """Memoized full Betti tables shared by the acceptance criteria."""
    from syzlab.betti import betti_table, make_config

    config = make_config()
    cache = {}

    def get(n, b, d):
        if (n, b, d) not in cache:
            cache[(n, b, d)] = betti_table(n, b, d, config=config,
                                           store=session_store)
        return cache[(n, b, d)]

    return get
