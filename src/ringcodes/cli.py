"""Command-line front end.

Subcommands: ``verify`` (condition report plus direct predicate checks),
``reproduce`` (named worked-example scenarios), ``construct`` (certified
combining matrices), ``dual`` (the dual of a code), ``distance``
(exact minimum distance, and the product lower bound when a matrix is
given).

Exit codes: 0 all requested properties/expectations hold, 1 a property
or expectation fails, 2 input, parse, hypothesis, or budget error.
Each request runs in one :func:`ring.enumeration_budget` block, set by
``--budget`` (10^7 by default) and checked before anything is parsed.
``verify`` reads every size from echelon forms and charges nothing.
Under ``--use-dual-theorem`` it prints the theorem dual's size,
prod |C_i^perp|, which the product remembers
(:meth:`LinearCode._dual_size`), once A is found square and
non-singular (:func:`mpc._require_dual_theorem`); the theorem dual
itself (:func:`mpc.mpc_dual_theorem`) is not built.

The options are declared once, in argparse.  A subcommand's argv in the
spelled-out form -- exact long options each followed by a value that
does not begin with ``-``, flags, positionals in order, every required
one present -- is parsed by one pass over that declaration
(:func:`_scan`).  argparse parses or refuses every other argv, help
included, and is the reference the pass is tested against; its
refusals name a token past 40 characters by its length, as the
package's own refusals do (:class:`_Parser`).  The pass
saves in-process callers of :func:`main` most of the parsing cost; a
one-shot ``ringcodes`` process, dominated by start-up, gains nothing
measurable.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional

from .code import LinearCode
from .constructions import (
    adiag1_matrix_a,
    adiag1_matrix_b,
    adiag3_matrix,
    block_adiag_matrix,
    diag1_matrix,
)
from .errors import HypothesisViolationError, InvalidParameterError, RingCodesError
from .mpc import (
    MPCSpec,
    _require_dual_theorem,
    build_mpc,
    check_conditions,
    min_distance_lower_bound,
)
from .notation import (
    WORD_LIMIT,
    code_to_json_dict,
    describe_code,
    parse_element,
    parse_generators,
    parse_code,
    parse_matrix,
    parse_ring,
)
from .ring import _ECHO_DIGITS, DEFAULT_ENUMERATION_BUDGET, _echo, enumeration_budget
from .scenarios import run_scenario, scenario_ids

_EXPECTABLE = {
    "self-orthogonal": LinearCode.is_self_orthogonal,
    "self-dual": LinearCode.is_self_dual,
}

_CONSTRUCT_FAMILIES = {
    "diag1": diag1_matrix,
    "adiag1a": adiag1_matrix_a,
    "adiag1b": adiag1_matrix_b,
    "adiag3": adiag3_matrix,
    "block": block_adiag_matrix,
}


def _parse_cli_code(text: str, ring, length: Optional[int]) -> LinearCode:
    text = text.strip()
    if text.startswith("span"):
        code = parse_code(text)
        if code.ring != ring:
            raise InvalidParameterError("the code's ring differs from --ring")
        if length is not None and code.length != length:
            raise InvalidParameterError(
                f"the code's length {code.length} differs from --length"
            )
        return code
    return parse_generators(text, ring, length)


def _write_json(value, newline: str, out) -> None:
    """Pass ``value``'s JSON text to ``out`` piece by piece: dicts, lists
    and tuples one item a line, each line opened by ``newline`` and two
    more spaces per level, as ``json.dumps(value, indent=2)`` writes it."""
    if isinstance(value, str):
        out(_encode_str(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        if not value:
            out("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(value, dict):
            sep, close = "{" + inner, newline + "}"
            for key, item in value.items():
                out(sep)
                out(_encode_str(key))
                out(": ")
                _write_json(item, inner, out)
                sep = "," + inner
        else:
            sep, close = "[" + inner, newline + "]"
            for item in value:
                out(sep)
                _write_json(item, inner, out)
                sep = "," + inner
        out(close)
    else:
        out(json.dumps(value))


def _json(payload) -> str:
    """``json.dumps(payload, indent=2)`` for str-keyed payloads, written
    directly: ``indent`` always runs json's pure-Python encoder."""
    parts: list[str] = []
    _write_json(payload, "\n", parts.append)
    return "".join(parts)


def _emit(args, payload: dict, text_lines) -> None:
    """Print ``payload`` as JSON, or the lines that ``text_lines()`` builds,
    which only text output calls for (all of them before any is printed)."""
    if args.format == "json":
        print(_json(payload))
    else:
        print("\n".join(text_lines()))


def _report_lines(report) -> list[str]:
    lines = [f"gram: {report.gram.tag}"]
    if report.gram.lambdas is not None:
        lines[-1] += " (" + ",".join(str(v) for v in report.gram.lambdas) + ")"
    for cond in report.conditions:
        status = "holds" if cond.holds else "fails"
        lines.append(f"  {cond.condition_id}: {status} -- {cond.detail}")
    if report.conclusions:
        for conc in report.conclusions:
            lines.append(f"conclusion: {conc.property} (by {conc.justified_by})")
    else:
        lines.append("conclusion: none")
    return lines


def _cmd_verify(args) -> int:
    for prop in args.expect:
        if prop not in _EXPECTABLE:
            raise InvalidParameterError(
                f"unknown property {_echo(prop, 'of')}; expected one of {sorted(_EXPECTABLE)}"
            )
    ring = parse_ring(args.ring)
    codes = [_parse_cli_code(text, ring, args.length) for text in args.code]
    matrix = parse_matrix(args.matrix, ring)
    spec = MPCSpec(tuple(codes), matrix)
    report = check_conditions(spec)
    mpc = build_mpc(spec)

    # The theorem dual C_A^perp = [C_1^perp ... C_s^perp](A^-1)^t has
    # prod |C_i^perp| words, the product's remembered dual size.
    theorem_size = None
    if args.use_dual_theorem:
        _require_dual_theorem(matrix)
        theorem_size = mpc._dual_size()

    expectations = [(prop, _EXPECTABLE[prop](mpc)) for prop in args.expect]

    payload = {
        "ring": ring.description(),
        "matrix": str(matrix),
        "report": report.to_json_dict(),
        "product": {"length": mpc.length, "cardinality": mpc.cardinality},
        "expectations": [{"property": p, "holds": h} for p, h in expectations],
    }
    if theorem_size is not None:
        payload["dual_theorem_cardinality"] = theorem_size

    def lines():
        yield f"ring: {ring.description()}"
        yield f"matrix: {matrix}"
        yield f"product: length {mpc.length}, {mpc.cardinality} codewords"
        yield from _report_lines(report)
        if theorem_size is not None:
            yield f"dual (via the inverse-transpose construction): {theorem_size} codewords"
        for prop, holds in expectations:
            yield f"expect {prop}: {'PASS' if holds else 'FAIL'}"

    _emit(args, payload, lines)
    return 0 if all(h for _, h in expectations) else 1


def _cmd_reproduce(args) -> int:
    result = run_scenario(args.scenario)
    _emit(args, result.to_json_dict(), lambda: [
        f"scenario {result.scenario_id}: {result.description}",
        *(f"  {'PASS' if e.passed else 'FAIL'} {e.name} [{e.witness}]"
          for e in result.expectations),
        "all expectations hold" if result.passed else "some expectations FAILED",
    ])
    return 0 if result.passed else 1


def _cmd_construct(args) -> int:
    ring = parse_ring(args.ring)
    u = parse_element(args.u, ring) if args.u is not None else None
    family = _CONSTRUCT_FAMILIES[args.family]
    if args.family == "block":
        cert = family(ring, u, s=args.s)
    else:
        cert = family(ring, u)
    payload = cert.to_json_dict()
    # The certificate line is the JSON output, so each format encodes it once.
    _emit(args, payload, lambda: [
        f"matrix: {cert.matrix}",
        "certificate: " + _json(payload),
    ])
    return 0


def _cmd_dual(args) -> int:
    ring = parse_ring(args.ring)
    code = _parse_cli_code(args.code, ring, args.length)
    dual = code.dual()
    # Text, and JSON up to WORD_LIMIT words, list the dual by its least
    # words, not by the kernel basis that generates it.
    if args.format == "text" or dual.cardinality <= WORD_LIMIT:
        words = dual._least_words(WORD_LIMIT + 1)
        dual = LinearCode._from_raws(ring, code.length, words, dual._module())
    payload = {
        "code": code_to_json_dict(code),
        "dual_cardinality": dual.cardinality,
        "dual": code_to_json_dict(dual),
    }
    _emit(args, payload, lambda: [
        f"code: {describe_code(code)}",
        f"dual: {describe_code(dual)}",
        f"dual cardinality: {dual.cardinality}",
    ])
    return 0


def _cmd_distance(args) -> int:
    ring = parse_ring(args.ring)
    codes = [_parse_cli_code(text, ring, args.length) for text in args.code]
    if args.matrix is None:
        if len(codes) != 1:
            raise InvalidParameterError("distance without --matrix takes exactly one --code")
        d = codes[0].min_distance()
        _emit(args, {"min_distance": d}, lambda: [f"minimum distance: {d}"])
        return 0
    matrix = parse_matrix(args.matrix, ring)
    spec = MPCSpec(tuple(codes), matrix)
    mpc = build_mpc(spec)
    exact = mpc.min_distance()
    bound = min_distance_lower_bound(spec)
    _emit(
        args,
        {"min_distance": exact, "lower_bound": bound, "length": mpc.length},
        lambda: [
            f"product length: {mpc.length}",
            f"exact minimum distance: {exact}",
            f"lower bound (min d_i * delta_i): {bound}",
        ],
    )
    return 0


#: What argparse echoes of a token in a refusal: a refused value, quoted by
#: repr, or a word, such as an ambiguous option.
_ECHOED = re.compile(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|[^\s'"]{41,}""")


def _shorten(match) -> str:
    text = match[0]
    if text[0] not in "'\"":
        return _echo(text)
    try:
        value = ast.literal_eval(text)
    except (SyntaxError, ValueError):  # quotes inside an echoed word, not a repr
        value = text[1:-1]
    return text if len(value) <= _ECHO_DIGITS else _echo(value)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusals name each token they echo past
    _ECHO_DIGITS characters by its length (:func:`ring._echo`)."""

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self._refuse_extras(extras)
        return args

    def _refuse_extras(self, extras: list) -> None:
        # Tokens may hold quotes or spaces, so each is shortened on its own.
        words = (w if len(w) <= _ECHO_DIGITS else _echo(w) for w in extras)
        super().error("unrecognized arguments: " + " ".join(words))

    def error(self, message: str):
        super().error(_ECHOED.sub(_shorten, message))


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict, dict]:
    """The top-level parser, each subcommand's parser by name, and each
    subcommand's scan table for :func:`_scan`, built once per process
    (parsing does not mutate them)."""
    declared: dict = {}

    def add(parser, *names, **kwargs):
        # Each declaration is kept with whether it appends, for the tables.
        action = parser.add_argument(*names, **kwargs)
        declared.setdefault(parser, []).append((action, kwargs.get("action") == "append"))

    common = argparse.ArgumentParser(add_help=False)
    add(common, "--format", choices=("text", "json"), default="text", help="output format")
    add(
        common,
        "--budget",
        type=int,
        default=None,
        help="cap on the words, candidates or elements one enumeration may visit "
        f"(default {DEFAULT_ENUMERATION_BUDGET})",
    )

    parser = _Parser(
        prog="ringcodes",
        description="Construct and verify self-orthogonal and self-dual "
        "matrix-product codes over finite commutative rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify", parents=[common],
        help="run the condition report and direct property checks on a product",
    )
    add(p, "--ring", required=True, help="ring description, e.g. Z/20")
    add(
        p, "--code", action="append", required=True,
        help="input code: '{ (10) }' or 'span Z/20 len 1 { (10) }' (repeatable)",
    )
    add(p, "--length", type=int, default=None, help="code length (for '{ }')")
    add(p, "--matrix", required=True, help="matrix literal, e.g. [[1,2],[0,0]]")
    add(
        p, "--expect", action="append", default=[],
        help="property to check: self-orthogonal or self-dual (repeatable)",
    )
    add(
        p, "--use-dual-theorem", action="store_true",
        help="compute the product dual via the inverse-transpose construction "
        "(requires a non-singular square matrix)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "reproduce", parents=[common], help="run a named worked-example scenario"
    )
    add(p, "scenario", help="one of: " + ", ".join(scenario_ids()))
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser(
        "construct", parents=[common], help="build a certified combining matrix"
    )
    add(p, "family", choices=sorted(_CONSTRUCT_FAMILIES))
    add(p, "--ring", required=True)
    add(p, "--u", default=None, help="element with the required property")
    add(p, "--s", type=int, default=2, help="block size (family 'block')")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("dual", parents=[common], help="dual of a code")
    add(p, "--ring", required=True)
    add(p, "--code", required=True)
    add(p, "--length", type=int, default=None)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser(
        "distance", parents=[common],
        help="exact minimum distance; with --matrix also the product bound",
    )
    add(p, "--ring", required=True)
    add(p, "--code", action="append", required=True)
    add(p, "--length", type=int, default=None)
    add(p, "--matrix", default=None)
    p.set_defaults(func=_cmd_distance)

    tables = {}
    for name, command in sub.choices.items():
        actions = declared[common] + declared[command]
        for action, _ in actions:
            # argparse converts a str default of an absent option; the scan
            # takes defaults as they are.
            assert action.nargs in (None, 0), action.dest
            assert not (isinstance(action.default, str) and action.type), action.dest
        tables[name] = (
            {o: entry for entry in actions for o in entry[0].option_strings},
            [a for a, _ in actions if not a.option_strings],
            [a for a, _ in actions if a.required],
            {**{a.dest: a.default for a, _ in actions}, "func": command.get_default("func")},
        )
    return parser, sub.choices, tables


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    return _parsers()[0]


def _value(action, word: str):
    """``word`` converted by the action's type and checked against its
    choices, as argparse does; None when argparse would refuse it."""
    if word.startswith("-"):
        return None
    try:
        value = word if action.type is None else action.type(word)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    if action.choices is not None and value not in action.choices:
        return None
    return value


def _scan(table, words) -> Optional[argparse.Namespace]:
    """The namespace argparse gives ``words`` when they are spelled out:
    exact long options, each followed by a value that does not begin
    with ``-``, flags, and positionals in order, with every required one
    present.  None for any other argv."""
    options, positionals, required, defaults = table
    values = dict(defaults)
    seen = set()
    pending = iter(positionals)
    words = iter(words)
    for word in words:
        if word.startswith("-"):
            entry = options.get(word)
            if entry is None:
                return None
            action, appends = entry
            if action.nargs == 0:
                value = action.const
            else:
                # A missing value reads as "-", which is refused.
                value = _value(action, next(words, "-"))
                if value is None:
                    return None
            if appends:
                # A fresh list, as argparse copies before it appends.
                value = [*(values[action.dest] or ()), value]
        else:
            action = next(pending, None)
            if action is None:
                return None
            value = _value(action, word)
            if value is None:
                return None
        values[action.dest] = value
        seen.add(action)
    if not seen.issuperset(required):
        return None
    return argparse.Namespace(**values)


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsing argv once.

    When the first argument names a subcommand, the top-level pass would
    hand every later argument to that subcommand's parser.  A spelled-out
    argv (see :func:`_scan`) is parsed in one pass over that parser's
    declared options.  Every other argv -- help, abbreviations,
    ``--opt=value``, values beginning with ``-``, ``--``, unknown or extra
    words, bad types or choices, a missing option -- goes to that parser,
    which parses or refuses it and is the reference the scan is tested
    against; its leftovers are refused as ``parse_args`` refuses them.
    In-process callers of :func:`main` gain; a one-shot process, whose
    start-up dwarfs the parse, does not."""
    parser, commands, tables = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _scan(tables[argv[0]], argv[1:])
    if args is not None:
        return args
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser._refuse_extras(extras)
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        with enumeration_budget(args.budget):
            return args.func(args)
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except RingCodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
