"""Canonical serialization helpers shared by reports, sweeps, and the CLI.

JSON documents are dumped with sorted keys and fixed separators so equal
documents are equal bytes.  ``write_json`` walks str-keyed dicts and
ndarrays itself and hands every other value to json's own encoder, so its
bytes are ``json.dump``'s.  CSV files always have a header row and are the
bytes the csv module writes, with its RFC-4180 quoting and CRLF rows; rows
whose cells are all str and need no quoting are joined directly.  Both
kinds of file are written to a temporary file beside their path that
replaces it once complete.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import shutil

import numpy as np


def canonical_dumps(doc) -> str:
    """Deterministic JSON text for a document (sorted keys, fixed separators)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def doc_hash(doc) -> str:
    """Hex sha256 of the canonical JSON encoding."""
    return hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()


# json's encoder for every value _pieces does not walk: with an indent it is the
# pure-Python encoder that json.dump uses, so its texts and messages are
# json.dump's own.  Its line breaks are all the layout's (a JSON string escapes
# its own), so a text indents by replacing them.
_encode = json.JSONEncoder(indent=1, allow_nan=False, sort_keys=True).encode


# Entries of an ndarray that write_json gives each forked process at the
# least: a pool of two breaks even at about twice this many (opening and
# closing it costs about as much as formatting them in one process), and each
# further process must bring as many entries again.  Measured with part files
# on 2 CPUs, over 15 alternating rounds of 128-entry rows: two processes took
# 1.48 times one process's time at 48 Ki entries and 0.81 times at 64 Ki.
_PROCESS_ENTRIES = 1 << 15


def write_json(path, doc):
    """Pretty but deterministic JSON file (sorted keys, trailing newline).

    The bytes are exactly those of ``json.dump(doc, fh, sort_keys=True,
    indent=1, allow_nan=False)`` plus a newline, written piece by piece as
    they are encoded.  Nonempty dicts whose keys are all str are walked key
    by key; any other value but an ndarray is json's encoder's text, so an
    ndarray stands only as the document or as a value of such a dict
    (elsewhere json raises its TypeError).  An ndarray is written as its
    ``.tolist()`` would be, one innermost row at a time, a float64 row in
    one join, so no nested list of the whole array is built.  An ndarray of
    two or more dimensions and at least ``2 * _PROCESS_ENTRIES`` entries is
    formatted by outer rows on forked processes, one per usable CPU but no
    more than one per ``_PROCESS_ENTRIES`` entries (``_forked_rows``): each
    task writes its rows' text to a part file beside the temporary file,
    and this process copies the parts into it in row order, so the bytes do
    not depend on the process count.  Where the platform cannot fork, the
    array is formatted in this process.  The pool is a ``_forked`` one: a
    write that fails lets the rows in flight finish, then raises; Ctrl-C
    stops the workers at once.  The text goes to a ``_replacing`` file, so
    an error leaves no partial file, and the parts are removed on every way
    out.
    """
    with _replacing(path) as fh:
        for piece in _pieces(doc, "\n", fh):
            fh.write(piece)
        fh.write("\n")


@contextlib.contextmanager
def _replacing(path, newline=None):
    """A text file open for writing beside ``path`` that replaces ``path`` once the block completes.

    If the block raises, the temporary file is removed and ``path`` is left
    as it was.
    """
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _pieces(value, newline: str, into=None):
    """JSON text of value in pieces; newline is the line break plus the current indent.

    Nonempty str-keyed dicts and ndarrays are walked, a nonempty 1-d float64
    array in one join; every other value is json's own text.  With ``into``,
    the ``_replacing`` file the pieces are written to, large ndarrays go to
    ``_forked_rows``, which writes their rows into it itself.
    """
    inner = newline + " "
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        for i, (key, item) in enumerate(sorted(value.items())):
            yield ("," if i else "{") + inner + _encode(key) + ": "
            yield from _pieces(item, inner, into)
        yield newline + "}"
    elif isinstance(value, np.ndarray) and value.ndim > 1 and len(value):
        if into is not None and value.size >= 2 * _PROCESS_ENTRIES:
            yield from _forked_rows(value, newline, into)
            return
        for i, row in enumerate(value):
            yield ("," if i else "[") + inner
            yield from _pieces(row, inner)
        yield newline + "]"
    elif isinstance(value, np.ndarray) and value.ndim == 1 and len(value) and value.dtype == np.float64:
        items = value.tolist()
        if not all(map(math.isfinite, items)):
            _encode(items)  # raises json's error for the first non-finite item
        yield "[" + inner + ("," + inner).join(map(float.__repr__, items)) + newline + "]"
    else:
        yield _encode(value.tolist() if isinstance(value, np.ndarray) else value).replace("\n", newline)


# The start method of every process pool: fork where the platform has it, so
# the workers inherit what the pool is given to share (a job's problems, a
# report's array) instead of receiving it pickled, whatever the default start
# method; elsewhere (None) the platform's default.  multiprocessing is
# imported only where a pool may open, so a command that opens none skips it.
_START_METHOD = "fork" if hasattr(os, "fork") else None


def _fork_cpus() -> int:
    """The processes a pool may fork: the CPUs this process may run on.

    1 where the platform cannot fork, and in a daemonic process (such as a
    pool worker), which may not have children.
    """
    import multiprocessing

    if _START_METHOD is None or multiprocessing.current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# What a pool worker's tasks share, set once per worker by the pool's
# initializer (inherited under fork), so a task carries only indices into it.
_shared = None


def _share(shared):
    global _shared
    _shared = shared


@contextlib.contextmanager
def _forked(processes: int, shared):
    """A pool of ``processes`` workers started with ``_START_METHOD``, each seeing ``shared``.

    Every process pool is opened and left here.  Leaving it waits for the
    tasks already submitted, also when the block raised: a worker killed
    while it sends a reply leaves the pool unable to shut down.  Only
    KeyboardInterrupt and SystemExit terminate the workers at once.
    """
    import multiprocessing

    pool = multiprocessing.get_context(_START_METHOD).Pool(processes, _share, (shared,))
    try:
        yield pool
    except (KeyboardInterrupt, SystemExit):
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


# Entries a writer task formats at the least: a task costs its process about
# 1 ms beyond the formatting (the pool's round trip and the part file).  On 2
# CPUs, 2 Mi entries in 128-entry rows took 1.79 s at 1 Ki entries per task,
# 0.91 s at 8 Ki and 0.82 s at 16 Ki.  32 Ki was faster still there, but
# slower on arrays of 96 Ki and 160 Ki entries, where the odd last task
# leaves one process idle.
_TASK_ENTRIES = 1 << 14


def _write_rows(lo: int, hi: int, part: str):
    """Write rows lo .. hi - 1 of the pool's (array, indent) to ``part``, with the separators between them."""
    array, inner = _shared
    text = ("," + inner).join("".join(_pieces(row, inner)) for row in array[lo:hi])
    with open(part, "wb") as fh:
        fh.write(text.encode())


def _forked_rows(array, newline: str, into):
    """_pieces of a nonempty 2+-d array whose outer rows forked processes format into ``into``.

    A task is one outer row, or as many as make ``_TASK_ENTRIES`` entries.
    The pool has one process per usable CPU, but no more than tasks or than
    one per ``_PROCESS_ENTRIES`` entries; with fewer than two, or where the
    platform cannot fork, the array is formatted in this process.  Each
    task writes its text to a part file named after ``into`` (the open
    ``_replacing`` file, ``.NAME.PID.tmp``) and its index, and returns
    nothing; two tasks per process are in flight.  This process writes the
    separators into ``into`` and copies each part after them in row order,
    then removes it, so no row text crosses a pipe.  A write that fails or
    stops reading leaves the pool (``_forked``) once the tasks in flight
    have finished, or at once on Ctrl-C, and then removes the parts not
    yet copied.
    """
    inner, n = newline + " ", len(array)
    step = max(1, _TASK_ENTRIES // array[0].size)
    spans = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    processes = min(_fork_cpus(), len(spans), array.size // _PROCESS_ENTRIES)
    if processes < 2:
        yield from _pieces(array, newline)
        return
    tasks = [(lo, hi, f"{into.name}.{k}") for k, (lo, hi) in enumerate(spans)]
    window, done = 2 * processes, 0
    try:
        with _forked(processes, (array, inner)) as pool:
            pending = collections.deque(pool.apply_async(_write_rows, task) for task in tasks[:window])
            for k, (_, _, part) in enumerate(tasks):
                pending.popleft().get()
                if k + window < len(tasks):
                    pending.append(pool.apply_async(_write_rows, tasks[k + window]))
                into.write(("," if k else "[") + inner)
                into.flush()
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, into.buffer)
                os.remove(part)
                done += 1
    finally:
        for _, _, part in tasks[done:]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
    yield newline + "]"


# Rows write_csv joins at a time: a chunk's rows and text are all it holds.
_CSV_CHUNK_ROWS = 1 << 12


def write_csv(path, header, rows):
    """CSV with a mandatory header row; values are stringified verbatim.

    The bytes are exactly those of ``csv.writer`` (excel dialect) writing
    ``header`` and then ``rows``.  Rows are taken ``_CSV_CHUNK_ROWS`` at a
    time; a chunk whose cells are all str and need no quoting is written
    as one joined string, any other chunk through ``csv.writer``.  The text
    goes to a ``_replacing`` file, so an error leaves no partial file.
    """
    rows = itertools.chain([header], rows)
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        while chunk := list(map(tuple, itertools.islice(rows, _CSV_CHUNK_ROWS))):
            text = _joined_rows(chunk)
            if text is None:
                writer.writerows(chunk)
            else:
                fh.write(text)


def _joined_rows(chunk):
    """The CSV text of rows of str cells that need no quoting, else None.

    csv quotes a cell holding a comma, a quote, CR or LF, and a row of one
    empty cell (written ``""``); such a cell adds a separator to the text
    beyond the one per cell boundary and row end, or leaves an empty line.
    """
    try:
        lines = list(map(",".join, chunk))
    except TypeError:  # a cell that is not a str
        return None
    if "" in lines:
        return None
    text = "\r\n".join(lines) + "\r\n"
    count = len(lines)
    if (text.count(",") != sum(map(len, chunk)) - count or text.count("\r") != count
            or text.count("\n") != count or '"' in text):
        return None
    return text


def fmt(value) -> str:
    """Cell formatting: full-fidelity repr for floats, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)
