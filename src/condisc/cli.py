"""Command-line front end.

Exit codes: 0 success, 1 invalid input, output that cannot be written or
running out of memory, 2 internal invariant violation or any other unexpected
error (a bug in the analyzer, not a property of the input).  :func:`_failure`
is the one statement of that rule for a raised exception.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import suppress
from itertools import chain
from pathlib import Path

from . import __version__
from .conductor import analyze
from .errors import InstanceError, InternalInvariantViolation
from .instancefile import load_instance
from .render import text_rows, write_dot


class _Parser(argparse.ArgumentParser):
    """Exit 1 on a usage error, which is invalid input; exit 2 means an analyzer bug."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):  # through _emit, as --version: argparse would swallow a failed write
        if file is not None:
            return super().print_help(file)
        _emit([self.format_help()])


class _Version(argparse.Action):  # argparse's version action, through _emit: a failed write exits 1
    def __call__(self, parser, *_):
        _emit([f"condisc {__version__}\n"])
        parser.exit()


class _Count(argparse.Action):  # --trials: an int, 0 or more
    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            parser.error(f"argument {option_string}: must be 0 or more, got {value}")
        setattr(namespace, self.dest, value)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="condisc",
        description="Exact conductor/discriminant analysis of split hyperelliptic equations "
        "over a discretely valued base",
    )
    parser.add_argument("--version", action=_Version, nargs=0, default=argparse.SUPPRESS,
                        help="show program's version number and exit")
    sub = parser.add_subparsers(dest="command", metavar="{analyze,batch}")

    pa = sub.add_parser("analyze", help="analyze one instance file")
    pa.add_argument("input", help="JSON instance file (roots or matrix mode)")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--dot-dir", metavar="DIR", help="write t_b.dot, t_y.dot, t_x.dot here")
    pa.add_argument("--strict", action="store_true", help="treat warnings as errors")
    pa.add_argument("--allow-small-genus", action="store_true",
                    help="accept 2 or 4 roots (outside the supported theory; for synthetic tests)")

    pb = sub.add_parser("batch", help="analyze every .json instance in a directory")
    pb.add_argument("directory")
    pb.add_argument("--allow-small-genus", action="store_true")

    pf = sub.add_parser("fuzz")  # internal: randomized identity sweep
    pf.add_argument("--trials", type=int, default=100, action=_Count)
    pf.add_argument("--seed", type=int, default=0)
    return parser


class _OutputError(Exception):
    """stdout refused a write: a closed pipe, a full disk, a character its encoding lacks."""


def _emit(rows) -> None:
    """Write each row to stdout as it is made, then flush.  A failed write
    raises _OutputError, also before any row is made when there is no stdout
    (file descriptor 1 was closed at start-up); an error raised while making a
    row passes through."""
    out = sys.stdout
    if out is None:
        exc = OSError(errno.EBADF, os.strerror(errno.EBADF))
        raise _OutputError(exc) from exc
    for row in rows:
        try:
            out.write(row)
        except (OSError, UnicodeEncodeError) as exc:
            raise _OutputError(exc) from exc
    try:
        out.flush()
    except OSError as exc:
        raise _OutputError(exc) from exc


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and message for an exception: 1 for invalid input, running out of memory (a
    limit of the input and the machine) or output that cannot be written, 2 for anything else, an
    analyzer bug whatever its type, with an invariant's own message or `Type: message`."""
    if isinstance(exc, InstanceError):
        return 1, str(exc)
    if isinstance(exc, MemoryError):
        return 1, "out of memory"
    if isinstance(exc, _OutputError):
        return 1, f"cannot write output: {exc.__cause__}"
    return 2, str(exc) if isinstance(exc, InternalInvariantViolation) else f"{type(exc).__name__}: {exc}"


def _cmd_analyze(args) -> int:
    source, label = load_instance(args.input)
    report = analyze(source, allow_small=args.allow_small_genus, label=label)
    if args.strict and report.warnings:
        for w in report.warnings:
            print(f"error (strict): {w}", file=sys.stderr)
        return 1
    if args.dot_dir:
        try:
            write_dot(report, args.dot_dir)
        except OSError as exc:
            print(f"error: cannot write DOT files to {args.dot_dir}: {exc}", file=sys.stderr)
            return 1
    rows = chain(report.json_rows(), ["\n"]) if args.format == "json" else text_rows(report)
    _emit(rows)  # written in pieces, so the output is never held whole
    return 0


def _cmd_batch(args) -> int:
    directory = Path(args.directory)
    files = sorted(directory.glob("*.json")) if directory.is_dir() else []
    if not files:
        print(f"no instances found in {args.directory}", file=sys.stderr)
        return 1
    failed = {1: 0, 2: 0}  # files by exit code

    def lines():
        for path in files:
            try:
                source, label = load_instance(path)
                report = analyze(source, allow_small=args.allow_small_genus,
                                 label=label if label is not None else path.stem)
                rows = report.json_rows(compact=True)
                head = next(rows)  # the header, after every row's tail is made
            except Exception as exc:  # counted against this file; the run goes on to the next
                code, message = _failure(exc)
                failed[code] += 1
                print(f"{path.name}: {'' if code == 1 else 'INTERNAL: '}{message}", file=sys.stderr)
                continue
            yield head  # from here on an error ends the run, as in analyze --format json
            yield from rows
            yield "\n"

    _emit(lines())
    if failed[1] or failed[2]:
        print(f"batch: {failed[1]} invalid, {failed[2]} internal failures "
              f"out of {len(files)} files", file=sys.stderr)
    return 2 if failed[2] else 1 if failed[1] else 0


def _cmd_fuzz(args) -> int:
    from .harness import default_specs, run_trial  # the oracles load only for this command

    equal = strict = 0
    for spec in default_specs(args.trials, base_seed=args.seed):
        report = run_trial(spec)
        if report.equality_holds:
            equal += 1
        else:
            strict += 1
    _emit([f"fuzz: {args.trials} trials ok ({equal} with equality, {strict} strict)\n"])
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "batch":
            return _cmd_batch(args)
        return _cmd_fuzz(args)
    except Exception as exc:  # one line on stderr, never a traceback
        if isinstance(exc, _OutputError) and isinstance(exc.__cause__, OSError) and sys.stdout is not None:
            # anything still buffered goes nowhere, so the flush at exit neither fails nor reports
            with suppress(OSError):  # a stdout with no file descriptor
                fd = sys.stdout.fileno()
                null = os.open(os.devnull, os.O_WRONLY)
                try:
                    os.dup2(null, fd)
                finally:
                    os.close(null)
        code, message = _failure(exc)
        print(f"error: {message}" if code == 1 else f"internal invariant violation: {message}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
