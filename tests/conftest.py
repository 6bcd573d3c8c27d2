"""Shared test plumbing.

The acceptance tests append one human-readable pass/fail line per
criterion to CRITERION_LINES; they are echoed in the terminal summary so
the verdicts are visible even when pytest captures per-test stdout.
Property tests run under a derandomized hypothesis profile.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip without hypothesis
    pass
else:
    # derandomized, so that every run draws the same examples; no example
    # database and no deadline, so that a run leaves no files behind and a
    # slow machine fails nothing
    settings.register_profile("tier1", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("tier1")

CRITERION_LINES = []


def record_criterion(number, ok, detail):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
