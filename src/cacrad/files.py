"""The one way a command reads a text file: as UTF-8, with every failure
raised as the caller's CacradError class, naming what the file is and
its path."""

import csv
from contextlib import contextmanager


@contextmanager
def _failing_as(path, what, error):
    try:
        yield
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        head = f"{what} not found:" if isinstance(exc, FileNotFoundError) else f"cannot read {what}"
        raise error(f"{head} {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_text(path, what, error) -> str:
    """The file's text, its line ends read as Path.read_text reads them."""
    with _failing_as(path, what, error), open(path, encoding="utf-8") as fh:
        return fh.read()


def csv_rows(path, what, error):
    """(line, cells) of each nonblank CSV row, parsed as it is read; line
    is the row's last line in the file."""
    with _failing_as(path, what, error), open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        for cells in rows:
            if cells:
                yield rows.line_num, cells
