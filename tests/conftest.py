"""Shared pytest config: one pass/fail summary line per acceptance criterion."""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if "::" in nodeid:
                status = "PASS" if outcome == "passed" else "FAIL"
                lines.append((nodeid.split("::")[-1], status))
            elif outcome == "error":  # the module failed to collect
                lines.append(("test_acceptance.py (collection error)", "FAIL"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, status in sorted(set(lines)):
            terminalreporter.write_line(f"{status}  {name}")
