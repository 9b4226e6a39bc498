"""Line-based configuration files: one entry per line, '# ' comments."""

from pathlib import Path


def read_entries(path, default: str | None = None) -> list:
    """(line number, stripped line) for every non-blank, non-comment line.

    A comment line is ``#`` followed by whitespace or the line's end, so an
    entry may start with ``#`` (a hashtag token such as ``#freeiran``).
    Without a *path* the bundled ``data/<default>`` file is read.  A leading
    UTF-8 byte order mark is dropped.
    """
    source = Path(__file__).with_name("data") / default if path is None else Path(path)
    text = source.read_text("utf-8").removeprefix("\ufeff")  # utf-8-sig decodes in Python
    entries = ((n, line.strip()) for n, line in enumerate(text.splitlines(), start=1))
    return [(n, line) for n, line in entries if line and line.split(None, 1)[0] != "#"]
