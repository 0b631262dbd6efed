import pytest

from malle_lab import presets


@pytest.fixture(autouse=True)
def fresh_group_memos():
    """Each test starts with empty spec memos, so a test that lowers a cap
    (say groups.ORDER_CAP) sees a fresh closure, not a memo hit."""
    presets._closed.cache_clear()
    presets._paired.cache_clear()
    presets._cyclic_pairs.cache_clear()
    yield


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line acceptance verdicts even when capture eats them."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
