import pytest

from library_sources import clear_library_memos


@pytest.fixture(autouse=True)
def fresh_library_memos():
    """Each test starts with every library memo empty (library_memos finds
    them), so a test that lowers a cap (say groups.ORDER_CAP) sees a fresh
    closure or lattice, not a memo hit."""
    clear_library_memos()
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
