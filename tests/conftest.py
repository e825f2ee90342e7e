import os

import pytest

from qmdkit import cli

from _oracles import oracle_dumps


def pytest_terminal_summary(terminalreporter):
    """Name the seed of the random draws, so a failing run can be repeated
    with ``QMD_SEED=<seed> python -m pytest ...``."""
    terminalreporter.write_line(f"QMD_SEED={os.environ.get('QMD_SEED', '0')}")


@pytest.fixture(autouse=True, scope="session")
def _cli_json_matches_json_dumps():
    """Every JSON document a test has the CLI write is checked, as it is
    written, against ``json.dumps(indent=2, sort_keys=True)``."""
    write = cli._dumps

    def checked(payload):
        text = write(payload)
        assert text == oracle_dumps(payload)
        return text

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_dumps", checked)
        yield
