import os
import sys

from hypothesis import settings

# CI runs derandomized, so a property failure there recurs locally with
# CI=1 instead of living only in the runner's example database; the
# failure report carries the reproduction blob either way.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion verdict lines into the terminal
    summary so they are visible without -s."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, detail in sorted(results):
        terminalreporter.write_line(
            f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        )
