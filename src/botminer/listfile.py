"""Line-based configuration files: one entry per line, '#' comments."""

from importlib import resources
from pathlib import Path


def read_entries(path, default: str | None = None) -> list:
    """(line number, stripped line) for every non-blank, non-comment line.

    Without a *path* the bundled ``data/<default>`` file is read.
    """
    if path is None:
        text = resources.files("botminer").joinpath("data", default).read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    entries = ((n, line.strip()) for n, line in enumerate(text.splitlines(), start=1))
    return [(n, line) for n, line in entries if line and not line.startswith("#")]
