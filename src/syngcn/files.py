"""The one file policy of syngcn: atomic writes, and JSON inputs parsed into the caller's typed error."""

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_open(path):
    """Binary file handle on a temp file beside ``path``, renamed over ``path`` on success."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_lines(path, lines) -> None:
    """Each string of ``lines`` as one UTF-8 line of ``path``, written atomically."""
    with atomic_open(path) as fh:
        for line in lines:
            fh.write((line + "\n").encode("utf-8"))


def parse_json(raw: bytes, error: type[Exception], where: str):
    """The JSON value of UTF-8 ``raw``; bad bytes, bad JSON or deep nesting raise ``error`` naming ``where``."""
    try:
        return json.loads(raw.decode("utf-8").strip())
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 ({exc.reason})") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON ({exc})") from exc
