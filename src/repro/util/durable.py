"""Durability helper shared by the checkpoint writer and the service cache."""

from __future__ import annotations

import os


def fsync_dir(dirname: str) -> None:
    """Flush ``dirname``'s entry table, so a rename into it survives a
    crash; a directory that cannot be opened is skipped."""
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
