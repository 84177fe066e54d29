"""The one atomic text writer behind every CSV, JSON and SVG output."""

from __future__ import annotations

import os
import tempfile


def write_text(path, text: str):
    """Write ``text`` to ``path`` as UTF-8 with UNIX newlines, whole or not at all.

    The text goes to a temporary file in the target's directory (made if
    missing), which is then renamed over ``path``; on any failure the
    temporary file is removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
