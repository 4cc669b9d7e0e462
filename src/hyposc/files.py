"""Output files: CSV tables and text, each written atomically.

Every file a command writes goes through `atomic_write_text`, so an
interrupted run leaves no partial file and a failed write names the file.
"""

import os
import tempfile

import numpy as np


def atomic_write_text(path: str, content: str):
    """Write via a temp file in the same directory, then rename.

    An OSError from either step is raised again as an OSError naming ``path``.
    """
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w") as f:
                f.write(content)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), path) from exc


def table_text(names, columns) -> str:
    """Equal-length columns as CSV text under the header `names`.

    A column is a sequence of strings, written as they are, or of numbers,
    written as "%.17g" (exactly what f"{x:.17g}" prints for a float).
    """
    columns = [col if isinstance(col[0], str) else np.asarray(col, dtype=float).tolist()
               for col in columns]
    fmt = ",".join("%s" if isinstance(col[0], str) else "%.17g" for col in columns)
    lines = [",".join(names)]
    lines.extend(fmt % row for row in zip(*columns))
    return "\n".join(lines) + "\n"


def write_table(path: str, names, columns):
    """Write `table_text(names, columns)` to ``path``."""
    atomic_write_text(path, table_text(names, columns))
