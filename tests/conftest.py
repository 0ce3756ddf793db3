from __future__ import annotations

import tracemalloc

import hypothesis

hypothesis.settings.register_profile(
    "chartevo", max_examples=50, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("chartevo")


def traced_peak(fn):
    """``(fn(), peak)``: the call's result and tracemalloc's peak of the bytes it
    allocated, tracing started just before the call and stopped after it."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# pass/fail ledger for the acceptance suite; each criterion registers a
# line here and the terminal summary prints them all
CRITERIA: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, description: str, passed: bool) -> bool:
    CRITERIA[number] = (description, bool(passed))
    return bool(passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        description, ok = CRITERIA[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {verdict}  {description}")
