import os


def pytest_terminal_summary(terminalreporter):
    """Name the seed of the random draws, so a failing run can be repeated
    with ``QMD_SEED=<seed> python -m pytest ...``."""
    terminalreporter.write_line(f"QMD_SEED={os.environ.get('QMD_SEED', '0')}")
