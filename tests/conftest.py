import os
import sys

from hypothesis import settings

# HYPOTHESIS_PROFILE names the profile to load; without it CI runs the
# derandomized "ci" profile, so a property failure there recurs locally
# with CI=1 instead of living only in the runner's example database.
# HYPOTHESIS_PROFILE=default draws fresh examples on every run. Both
# profiles print the reproduction blob of a failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("default", print_blob=True)
_profile = os.environ.get("HYPOTHESIS_PROFILE") or ("ci" if os.environ.get("CI") else None)
if _profile:
    settings.load_profile(_profile)


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
